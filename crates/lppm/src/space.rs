//! Multi-dimensional configuration spaces.
//!
//! The paper's method statement configures "the LPPM configuration parameters
//! p_i and their range of values" — plural. [`ConfigSpace`] is that object:
//! an ordered set of uniquely named [`ParameterDescriptor`] axes, one per
//! configuration parameter of a mechanism (a composed pipeline has one axis
//! per stage parameter). [`ConfigPoint`] is one concrete, validated
//! configuration inside a space — the unit the experiment runner sweeps and
//! the configurator recommends.
//!
//! A one-axis space reproduces the framework's historical single-scalar
//! behavior exactly: [`ConfigSpace::grid`] with one count equals
//! [`ParameterDescriptor::sweep`] value for value, in the same order.

use crate::error::LppmError;
use crate::params::ParameterDescriptor;
use serde::{Deserialize, Serialize};
use std::fmt;

/// An ordered, uniquely named set of configuration-parameter axes.
///
/// # Examples
///
/// ```
/// use geopriv_lppm::{ConfigSpace, ParameterDescriptor, ParameterScale};
///
/// # fn main() -> Result<(), geopriv_lppm::LppmError> {
/// let space = ConfigSpace::new(vec![
///     ParameterDescriptor::new("epsilon", 1e-4, 1.0, ParameterScale::Logarithmic)?,
///     ParameterDescriptor::new("cell_size", 50.0, 5000.0, ParameterScale::Logarithmic)?,
/// ])?;
/// assert_eq!(space.len(), 2);
/// let point = space.point_from_coords(&[0.01, 500.0])?;
/// assert_eq!(point.get("epsilon"), Some(0.01));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConfigSpace {
    axes: Vec<ParameterDescriptor>,
}

impl ConfigSpace {
    /// Creates a configuration space from its axes.
    ///
    /// # Errors
    ///
    /// Returns [`LppmError::InvalidParameter`] for an empty axis list or
    /// duplicate axis names (qualify colliding names first, as
    /// `PipelineFactory` in `geopriv-core` does with
    /// [`ParameterDescriptor::with_name`]).
    pub fn new(axes: Vec<ParameterDescriptor>) -> Result<Self, LppmError> {
        if axes.is_empty() {
            return Err(LppmError::InvalidParameter {
                name: "axes",
                value: 0.0,
                reason: "a configuration space needs at least one axis",
            });
        }
        let mut seen = std::collections::HashSet::new();
        for axis in &axes {
            if !seen.insert(axis.name().to_string()) {
                return Err(LppmError::InvalidParameter {
                    name: "axes",
                    value: axes.len() as f64,
                    reason: "axis names must be unique within a configuration space",
                });
            }
        }
        Ok(Self { axes })
    }

    /// The one-axis space of a single swept parameter.
    pub fn single(axis: ParameterDescriptor) -> Self {
        Self { axes: vec![axis] }
    }

    /// Number of axes (the dimensionality of the space).
    pub fn len(&self) -> usize {
        self.axes.len()
    }

    /// Always `false`: construction rejects empty spaces.
    pub fn is_empty(&self) -> bool {
        self.axes.is_empty()
    }

    /// The axes, in order.
    pub fn axes(&self) -> &[ParameterDescriptor] {
        &self.axes
    }

    /// The axis with the given name.
    pub fn axis(&self, name: &str) -> Option<&ParameterDescriptor> {
        self.axes.iter().find(|a| a.name() == name)
    }

    /// The axis names, in order.
    pub fn names(&self) -> Vec<&str> {
        self.axes.iter().map(ParameterDescriptor::name).collect()
    }

    /// The single axis of a one-dimensional space, or `None` for multi-axis
    /// spaces — the hinge every legacy single-scalar code path turns on.
    pub fn single_axis(&self) -> Option<&ParameterDescriptor> {
        match self.axes.as_slice() {
            [axis] => Some(axis),
            _ => None,
        }
    }

    /// Builds a validated point from positional values (axis order).
    ///
    /// # Errors
    ///
    /// Returns [`LppmError::InvalidParameter`] for a wrong value count or a
    /// value outside its axis range.
    pub fn point_from_coords(&self, coords: &[f64]) -> Result<ConfigPoint, LppmError> {
        if coords.len() != self.axes.len() {
            return Err(LppmError::InvalidParameter {
                name: "point",
                value: coords.len() as f64,
                reason: "a configuration point must give every axis exactly one value",
            });
        }
        for (axis, &value) in self.axes.iter().zip(coords) {
            if !axis.contains(value) {
                return Err(LppmError::InvalidParameter {
                    name: "point",
                    value,
                    reason: "a coordinate lies outside its axis range",
                });
            }
        }
        Ok(ConfigPoint {
            values: self
                .axes
                .iter()
                .zip(coords)
                .map(|(axis, &value)| (axis.name().to_string(), value))
                .collect(),
        })
    }

    /// Returns `true` if the point names exactly this space's axes (in
    /// order) with every coordinate inside its axis range.
    pub fn contains(&self, point: &ConfigPoint) -> bool {
        point.values.len() == self.axes.len()
            && self
                .axes
                .iter()
                .zip(&point.values)
                .all(|(axis, (name, value))| axis.name() == name && axis.contains(*value))
    }

    /// Validates that `point` belongs to this space.
    ///
    /// # Errors
    ///
    /// Returns [`LppmError::InvalidParameter`] when it does not (wrong axes,
    /// wrong order, or an out-of-range coordinate).
    pub fn check(&self, point: &ConfigPoint) -> Result<(), LppmError> {
        if self.contains(point) {
            Ok(())
        } else {
            Err(LppmError::InvalidParameter {
                name: "point",
                value: point.values.len() as f64,
                reason: "the configuration point does not belong to this space",
            })
        }
    }

    /// Enumerates the full-factorial grid with `counts[i]` sweep values on
    /// axis `i` (each axis swept by [`ParameterDescriptor::sweep`], so each
    /// count is clamped to at least 2 and both endpoints are exact).
    ///
    /// The order is deterministic row-major: the *last* axis varies fastest.
    /// For a one-axis space the grid is exactly `axes()[0].sweep(counts[0])`.
    ///
    /// # Errors
    ///
    /// Returns [`LppmError::InvalidParameter`] when `counts` does not have
    /// one entry per axis, or when the grid has more points than this
    /// platform can hold (its size is computed with checked arithmetic, so it
    /// never wraps).
    pub fn grid(&self, counts: &[usize]) -> Result<Vec<ConfigPoint>, LppmError> {
        self.check_counts(counts)?;
        let size = counts.iter().try_fold(1usize, |size, &count| size.checked_mul(count.max(2)));
        let (total, mut points) = reserve_design(size)?;
        let sweeps = self.axis_sweeps(counts);
        let mut indices = vec![0usize; sweeps.len()];
        for _ in 0..total {
            points.push(ConfigPoint {
                values: self
                    .axes
                    .iter()
                    .zip(&sweeps)
                    .zip(&indices)
                    .map(|((axis, sweep), &i)| (axis.name().to_string(), sweep[i]))
                    .collect(),
            });
            // Row-major increment: last axis fastest.
            for axis in (0..indices.len()).rev() {
                indices[axis] += 1;
                if indices[axis] < sweeps[axis].len() {
                    break;
                }
                indices[axis] = 0;
            }
        }
        Ok(points)
    }

    /// Enumerates the paper's one-at-a-time design: for each axis in order,
    /// sweep that axis over `counts[i]` values while every *other* axis is
    /// held at its [`ParameterDescriptor::default_value`].
    ///
    /// For a one-axis space this equals [`ConfigSpace::grid`] (there are no
    /// other axes to hold), preserving the single-scalar sweep bit for bit.
    ///
    /// # Errors
    ///
    /// As [`ConfigSpace::grid`].
    pub fn one_at_a_time(&self, counts: &[usize]) -> Result<Vec<ConfigPoint>, LppmError> {
        self.check_counts(counts)?;
        let size = counts.iter().try_fold(0usize, |size, &count| size.checked_add(count.max(2)));
        let (_, mut points) = reserve_design(size)?;
        let sweeps = self.axis_sweeps(counts);
        let defaults: Vec<f64> = self.axes.iter().map(ParameterDescriptor::default_value).collect();
        for (varied, sweep) in sweeps.iter().enumerate() {
            for &value in sweep {
                points.push(ConfigPoint {
                    values: self
                        .axes
                        .iter()
                        .enumerate()
                        .map(|(i, axis)| {
                            (axis.name().to_string(), if i == varied { value } else { defaults[i] })
                        })
                        .collect(),
                });
            }
        }
        Ok(points)
    }

    fn check_counts(&self, counts: &[usize]) -> Result<(), LppmError> {
        if counts.len() != self.axes.len() {
            return Err(LppmError::InvalidParameter {
                name: "counts",
                value: counts.len() as f64,
                reason: "sweep counts must have one entry per axis",
            });
        }
        Ok(())
    }

    fn axis_sweeps(&self, counts: &[usize]) -> Vec<Vec<f64>> {
        self.axes.iter().zip(counts).map(|(axis, &count)| axis.sweep(count)).collect()
    }

    /// A stable token identifying the whole space (every axis's
    /// [`ParameterDescriptor::cache_token`], in order), for use in cache
    /// keys.
    pub fn cache_token(&self) -> String {
        let tokens: Vec<String> = self.axes.iter().map(ParameterDescriptor::cache_token).collect();
        tokens.join("+")
    }
}

/// Room for a design of `size` points, reserved before any axis is swept;
/// `None` is a size whose checked product or sum overflowed.
fn reserve_design(size: Option<usize>) -> Result<(usize, Vec<ConfigPoint>), LppmError> {
    let mut points = Vec::new();
    match size {
        Some(size) if points.try_reserve_exact(size).is_ok() => Ok((size, points)),
        _ => Err(LppmError::InvalidParameter {
            name: "counts",
            value: size.map_or(f64::INFINITY, |size| size as f64),
            reason: "the design has more points than this platform can hold",
        }),
    }
}

impl fmt::Display for ConfigSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, axis) in self.axes.iter().enumerate() {
            if i > 0 {
                write!(f, " × ")?;
            }
            write!(f, "{axis}")?;
        }
        Ok(())
    }
}

/// One named, validated configuration inside a [`ConfigSpace`]: the value of
/// every axis, in axis order.
///
/// Points are normally constructed through their space
/// ([`ConfigSpace::point_from_coords`], [`ConfigSpace::grid`], …), so holding such a
/// `ConfigPoint` means the coordinates were range-checked against the axes.
/// The one exception is [`ConfigPoint::from_named`], the wire-format
/// deserialization entry, whose points carry no validation guarantee until a
/// consumer runs [`ConfigSpace::check`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConfigPoint {
    values: Vec<(String, f64)>,
}

impl ConfigPoint {
    /// Reconstructs a point from named coordinates **without validation** —
    /// the wire-format deserialization entry used by the JSON parsers in
    /// `geopriv-core`'s `report` module.
    ///
    /// Unlike every other constructor, the result carries no guarantee of
    /// belonging to any [`ConfigSpace`]: a consumer that instantiates a
    /// mechanism from a deserialized point must validate it first
    /// ([`ConfigSpace::check`], which every `LppmFactory::instantiate_at`
    /// does), so a tampered or out-of-space wire point surfaces as a typed
    /// error rather than a mis-configured mechanism.
    pub fn from_named(values: Vec<(String, f64)>) -> Self {
        Self { values }
    }

    /// The named coordinates, in axis order.
    pub fn values(&self) -> &[(String, f64)] {
        &self.values
    }

    /// The coordinates alone, in axis order.
    pub fn coords(&self) -> Vec<f64> {
        self.values.iter().map(|(_, v)| *v).collect()
    }

    /// The value of one named axis.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Number of axes.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Always `false`: points come from non-empty spaces.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The value of a one-dimensional point, or `None` for multi-axis
    /// points — the inverse of [`ConfigSpace::single_axis`].
    pub fn single(&self) -> Option<f64> {
        match self.values.as_slice() {
            [(_, value)] => Some(*value),
            _ => None,
        }
    }

    /// A stable token encoding every coordinate at full precision, for use
    /// in cache keys (two points differing in any ULP get distinct tokens).
    pub fn cache_token(&self) -> String {
        let parts: Vec<String> =
            self.values.iter().map(|(name, value)| format!("{name}={value:e}")).collect();
        parts.join(",")
    }
}

impl fmt::Display for ConfigPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (name, value)) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{name} = {value:.5}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ParameterScale;

    fn epsilon() -> ParameterDescriptor {
        ParameterDescriptor::new("epsilon", 1e-4, 1.0, ParameterScale::Logarithmic).unwrap()
    }

    fn cell() -> ParameterDescriptor {
        ParameterDescriptor::new("cell_size", 50.0, 5000.0, ParameterScale::Logarithmic).unwrap()
    }

    fn two_d() -> ConfigSpace {
        ConfigSpace::new(vec![epsilon(), cell()]).unwrap()
    }

    #[test]
    fn construction_rejects_empty_and_duplicate_axes() {
        assert!(ConfigSpace::new(vec![]).is_err());
        assert!(ConfigSpace::new(vec![epsilon(), epsilon()]).is_err());
        let space = two_d();
        assert_eq!(space.len(), 2);
        assert!(!space.is_empty());
        assert_eq!(space.names(), vec!["epsilon", "cell_size"]);
        assert_eq!(space.axis("cell_size").unwrap().min(), 50.0);
        assert!(space.axis("nope").is_none());
        assert!(space.single_axis().is_none());
        assert_eq!(ConfigSpace::single(epsilon()).single_axis().unwrap().name(), "epsilon");
    }

    #[test]
    fn named_points_are_validated_and_ordered() {
        let space = two_d();
        // Axis-ordered construction and storage.
        let point = space.point_from_coords(&[0.01, 500.0]).unwrap();
        assert_eq!(point.coords(), vec![0.01, 500.0]);
        assert_eq!(point.get("epsilon"), Some(0.01));
        assert_eq!(point.get("nope"), None);
        assert_eq!(point.len(), 2);
        assert!(!point.is_empty());
        assert!(point.single().is_none());
        assert!(space.contains(&point));
        assert!(space.check(&point).is_ok());

        // Out of range, missing axis.
        assert!(space.point_from_coords(&[2.0, 500.0]).is_err());
        assert!(space.point_from_coords(&[0.01]).is_err());
        assert!(space.point_from_coords(&[0.01, 1e9]).is_err());

        // A point from another space is rejected by check().
        let other = ConfigSpace::single(epsilon());
        let foreign = other.point_from_coords(&[0.01]).unwrap();
        assert!(!space.contains(&foreign));
        assert!(space.check(&foreign).is_err());
        assert_eq!(foreign.single(), Some(0.01));
    }

    #[test]
    fn one_axis_grid_equals_the_descriptor_sweep() {
        let space = ConfigSpace::single(epsilon());
        let grid = space.grid(&[9]).unwrap();
        let sweep = epsilon().sweep(9);
        assert_eq!(grid.len(), 9);
        for (point, value) in grid.iter().zip(&sweep) {
            assert_eq!(point.coords(), vec![*value]);
        }
        // One-at-a-time degenerates to the same enumeration.
        assert_eq!(space.one_at_a_time(&[9]).unwrap(), grid);
    }

    #[test]
    fn grids_are_row_major_with_exact_endpoints() {
        let space = two_d();
        let grid = space.grid(&[3, 4]).unwrap();
        assert_eq!(grid.len(), 12);
        // Last axis fastest: the first four points share the epsilon minimum.
        for point in &grid[..4] {
            assert_eq!(point.get("epsilon"), Some(1e-4));
        }
        assert_eq!(grid[0].get("cell_size"), Some(50.0));
        assert_eq!(grid[3].get("cell_size"), Some(5000.0));
        // Both endpoints of both axes are exact at the corners.
        assert_eq!(grid[11].coords(), vec![1.0, 5000.0]);
        // Every point validates against the space.
        assert!(grid.iter().all(|p| space.contains(p)));
        // Deterministic: re-enumeration is identical.
        assert_eq!(space.grid(&[3, 4]).unwrap(), grid);
        // Wrong count arity.
        assert!(space.grid(&[3]).is_err());
    }

    #[test]
    fn one_at_a_time_holds_other_axes_at_defaults() {
        let space = two_d();
        let star = space.one_at_a_time(&[3, 5]).unwrap();
        assert_eq!(star.len(), 8);
        // First leg: epsilon varies, cell at its geometric midpoint.
        for point in &star[..3] {
            assert_eq!(point.get("cell_size"), Some(500.0));
        }
        assert_eq!(star[0].get("epsilon"), Some(1e-4));
        assert_eq!(star[2].get("epsilon"), Some(1.0));
        // Second leg: cell varies, epsilon at its geometric midpoint.
        for point in &star[3..] {
            assert!((point.get("epsilon").unwrap() - 0.01).abs() < 1e-12);
        }
        assert_eq!(star[3].get("cell_size"), Some(50.0));
        assert_eq!(star[7].get("cell_size"), Some(5000.0));
        assert!(star.iter().all(|p| space.contains(p)));
        assert!(space.one_at_a_time(&[3]).is_err());
    }

    #[test]
    fn designs_too_large_to_hold_are_errors_not_wrapped_sizes() {
        let axes = |n: usize| {
            ConfigSpace::new((0..n).map(|i| epsilon().with_name(format!("axis{i}"))).collect())
                .unwrap()
        };
        // 65,536⁴ = 2⁶⁴ points: the product overflows.
        assert!(axes(4).grid(&[1 << 16; 4]).is_err());
        // (2²¹)³ = 2⁶³ points: the product fits, the point list cannot.
        assert!(axes(3).grid(&[1 << 21; 3]).is_err());
        // One axis at a time sums its counts: this sum overflows.
        assert!(axes(2).one_at_a_time(&[usize::MAX, 2]).is_err());
    }

    #[test]
    fn wire_points_are_unvalidated_until_checked() {
        let space = two_d();
        // A faithful wire round-trip validates against the original space.
        let wire = ConfigPoint::from_named(vec![
            ("epsilon".to_string(), 0.01),
            ("cell_size".to_string(), 500.0),
        ]);
        assert_eq!(wire, space.point_from_coords(&[0.01, 500.0]).unwrap());
        assert!(space.check(&wire).is_ok());
        // Tampered wire data constructs fine but fails the space check —
        // exactly the deferred-validation contract the serving layer uses.
        let tampered = ConfigPoint::from_named(vec![("epsilon".to_string(), 1e9)]);
        assert_eq!(tampered.get("epsilon"), Some(1e9));
        assert!(space.check(&tampered).is_err());
    }

    #[test]
    fn tokens_and_display_are_stable_and_discriminating() {
        let space = two_d();
        assert_eq!(space.cache_token(), two_d().cache_token());
        assert!(space.cache_token().contains("epsilon"));
        assert!(space.cache_token().contains("cell_size"));
        assert_ne!(space.cache_token(), ConfigSpace::single(epsilon()).cache_token());

        let a = space.point_from_coords(&[0.01, 500.0]).unwrap();
        let b = space.point_from_coords(&[0.01, 500.0000001]).unwrap();
        assert_eq!(a.cache_token(), a.clone().cache_token());
        assert_ne!(a.cache_token(), b.cache_token());

        assert!(space.to_string().contains("×"));
        assert_eq!(a.to_string(), "epsilon = 0.01000, cell_size = 500.00000");
    }
}
