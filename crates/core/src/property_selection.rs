//! PCA-based dataset-property selection (step 1, ingredient 3).
//!
//! "All these properties p_i, d_i are soundly chosen using a principal
//! component analysis." Candidate per-user properties are computed by
//! [`geopriv_mobility::DatasetProperties`]; this module runs a PCA over them
//! and ranks each property by how much of the dataset's variance it carries,
//! so the framework can keep only the influential `d_j` when extending the
//! model of Equation 1 beyond the single-parameter GEO-I illustration.

use crate::error::CoreError;
use geopriv_analysis::Pca;
use geopriv_mobility::{DatasetProperties, TraceProperties};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The ranked importance of one candidate dataset property.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RankedProperty {
    /// Property name (one of [`TraceProperties::NAMES`]).
    pub name: String,
    /// Importance score: sum over components of |loading| × explained variance.
    pub importance: f64,
    /// Whether the property was selected.
    pub selected: bool,
}

/// The result of the PCA-based property selection.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PropertySelection {
    /// All candidate properties ranked by decreasing importance.
    pub ranked: Vec<RankedProperty>,
    /// Number of principal components needed to explain the variance threshold.
    pub components_needed: usize,
    /// Fraction of variance explained by the first component.
    pub first_component_variance: f64,
}

impl PropertySelection {
    /// Names of the selected properties, in decreasing importance order.
    pub fn selected_names(&self) -> Vec<&str> {
        self.ranked.iter().filter(|p| p.selected).map(|p| p.name.as_str()).collect()
    }
}

impl fmt::Display for PropertySelection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} principal components explain the variance threshold; ranked properties:",
            self.components_needed
        )?;
        for p in &self.ranked {
            writeln!(
                f,
                "  {} {:<22} importance {:.3}",
                if p.selected { "*" } else { " " },
                p.name,
                p.importance
            )?;
        }
        Ok(())
    }
}

/// Selects influential dataset properties with a PCA.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PropertySelector {
    _private: (),
}

/// Fraction of the variance the reported principal components must explain.
const VARIANCE_THRESHOLD: f64 = 0.9;

/// The most properties a selection keeps.
const MAX_SELECTED: usize = 4;

impl PropertySelector {
    /// Runs the PCA and ranks the candidate properties.
    ///
    /// # Errors
    ///
    /// Propagates [`CoreError::Analysis`] for degenerate property matrices
    /// (fewer than two users).
    pub fn select(&self, properties: &DatasetProperties) -> Result<PropertySelection, CoreError> {
        let matrix = properties.as_matrix();
        let pca = Pca::fit(&matrix)?;
        let importance = pca.variable_importance();

        let mut order: Vec<usize> = (0..importance.len()).collect();
        order.sort_by(|&a, &b| importance[b].partial_cmp(&importance[a]).expect("finite"));

        let selected_count = MAX_SELECTED.min(importance.len());
        let mut ranked: Vec<RankedProperty> = order
            .iter()
            .enumerate()
            .map(|(rank, &idx)| RankedProperty {
                name: TraceProperties::NAMES[idx].to_string(),
                importance: importance[idx],
                selected: rank < selected_count,
            })
            .collect();
        // Properties that carry essentially no variance are never selected,
        // even inside the cap.
        let max_importance = ranked.first().map(|p| p.importance).unwrap_or(0.0);
        for p in &mut ranked {
            if p.importance < 0.05 * max_importance {
                p.selected = false;
            }
        }

        Ok(PropertySelection {
            ranked,
            components_needed: pca.components_for_variance(VARIANCE_THRESHOLD),
            first_component_variance: pca
                .components()
                .first()
                .map(|c| c.explained_variance_ratio)
                .unwrap_or(0.0),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geopriv_geo::Meters;
    use geopriv_mobility::generator::{CommuterBuilder, TaxiFleetBuilder};
    use geopriv_mobility::Dataset;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mixed_dataset() -> Dataset {
        // Taxi drivers and commuters have very different mobility statistics,
        // giving the PCA real structure to find.
        let mut rng = StdRng::seed_from_u64(3);
        let taxis = TaxiFleetBuilder::new()
            .drivers(6)
            .duration_hours(6.0)
            .sampling_interval_s(60.0)
            .build(&mut rng)
            .unwrap();
        let commuters = CommuterBuilder::new()
            .users(6)
            .days(1)
            .sampling_interval_s(120.0)
            .first_user_id(100)
            .build(&mut rng)
            .unwrap();
        let mut traces = taxis.to_traces();
        traces.extend(commuters.to_traces());
        Dataset::new(traces).unwrap()
    }

    #[test]
    fn selection_ranks_all_candidate_properties() {
        let dataset = mixed_dataset();
        let properties = DatasetProperties::compute(&dataset, Meters::new(200.0)).unwrap();
        let selection = PropertySelector::default().select(&properties).unwrap();

        assert_eq!(selection.ranked.len(), TraceProperties::NAMES.len());
        // Ranking is by decreasing importance.
        for pair in selection.ranked.windows(2) {
            assert!(pair[0].importance >= pair[1].importance - 1e-12);
        }
        // Something is selected, bounded by the cap.
        let selected = selection.selected_names();
        assert!(!selected.is_empty());
        assert!(selected.len() <= 4);
        // A handful of components explain most of the variance.
        assert!(selection.components_needed >= 1);
        assert!(selection.components_needed <= TraceProperties::NAMES.len());
        assert!(selection.first_component_variance > 0.2);
        // Display lists every property.
        let text = selection.to_string();
        for name in TraceProperties::NAMES {
            assert!(text.contains(name), "missing {name} in report");
        }
    }

    #[test]
    fn cap_limits_the_number_of_selected_properties() {
        let dataset = mixed_dataset();
        let properties = DatasetProperties::compute(&dataset, Meters::new(200.0)).unwrap();
        let selection = PropertySelector::default().select(&properties).unwrap();
        assert!(selection.selected_names().len() <= MAX_SELECTED);
    }

    #[test]
    fn components_needed_is_the_pca_count_at_ninety_percent() {
        let dataset = mixed_dataset();
        let properties = DatasetProperties::compute(&dataset, Meters::new(200.0)).unwrap();
        let selection = PropertySelector::default().select(&properties).unwrap();
        let pca = Pca::fit(&properties.as_matrix()).unwrap();
        assert_eq!(selection.components_needed, pca.components_for_variance(0.9));
        assert_eq!(
            selection.first_component_variance,
            pca.components()[0].explained_variance_ratio
        );
    }

    #[test]
    fn weak_properties_are_never_selected() {
        let dataset = mixed_dataset();
        let properties = DatasetProperties::compute(&dataset, Meters::new(200.0)).unwrap();
        let selection = PropertySelector::default().select(&properties).unwrap();
        let strongest = selection.ranked[0].importance;
        for (rank, p) in selection.ranked.iter().enumerate() {
            // Selected: inside the cap and at least 5 % of the strongest.
            let expected = rank < MAX_SELECTED && p.importance >= 0.05 * strongest;
            assert_eq!(p.selected, expected, "{} at rank {rank}", p.name);
        }
    }

    #[test]
    fn degenerate_property_matrices_are_rejected() {
        let mut rng = StdRng::seed_from_u64(4);
        let single =
            TaxiFleetBuilder::new().drivers(1).duration_hours(1.0).build(&mut rng).unwrap();
        let properties = DatasetProperties::compute(&single, Meters::new(200.0)).unwrap();
        assert!(PropertySelector::default().select(&properties).is_err());
    }
}
