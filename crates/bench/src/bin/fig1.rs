//! Reproduces **Figure 1** of the paper: the GEO-I privacy metric (1a) and
//! utility metric (1b) as a function of ε on a log-scale sweep from 10⁻⁴ to
//! 1 m⁻¹.
//!
//! ```text
//! cargo run -p geopriv-bench --release --bin fig1 [-- --fidelity smoke|standard|full]
//! ```
//!
//! The output contains one aligned table (both series) plus a CSV block that
//! can be plotted directly; the vertical-line zone boundaries reported by the
//! modeler correspond to the non-saturated zones marked in the paper's figure.

use geopriv_bench::{fidelity_from_args, reproduction_dataset, run_paper_sweep, shape_check};
use geopriv_core::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let fidelity = fidelity_from_args();
    eprintln!("building the synthetic SF taxi dataset ({fidelity:?})…");
    let dataset = reproduction_dataset(fidelity);
    eprintln!("dataset: {} drivers, {} records", dataset.user_count(), dataset.record_count());

    eprintln!("sweeping epsilon (Figure 1)…");
    let sweep = run_paper_sweep(&dataset, fidelity)?;

    println!("== Figure 1a (privacy metric vs epsilon) and 1b (utility metric vs epsilon) ==");
    println!("{}", report::sweep_to_table(&sweep));

    println!("== CSV ==");
    println!("{}", report::sweep_to_csv(&sweep));

    // The non-saturated zones (the vertical lines of Figure 1).
    let fitted = Modeler::new().fit(&sweep)?;
    let privacy =
        fitted.model(&MetricId::new("poi-retrieval")).expect("privacy model").axis().expect("1-D");
    let utility =
        fitted.model(&MetricId::new("area-coverage")).expect("utility model").axis().expect("1-D");
    println!("== Non-saturated zones (the vertical lines of Figure 1) ==");
    println!(
        "privacy (poi-retrieval):  epsilon in [{:.5}, {:.5}]   (paper: ~0.007 to ~0.08)",
        privacy.active_zone.0, privacy.active_zone.1
    );
    println!(
        "utility (area-coverage):  epsilon in [{:.5}, {:.5}]   (paper: wider than the privacy zone)",
        utility.active_zone.0, utility.active_zone.1
    );

    // Figure 1's shape: both metrics rise across the swept range.
    let privacy_means = sweep.values(&MetricId::new("poi-retrieval")).expect("privacy column");
    let utility_means = sweep.values(&MetricId::new("area-coverage")).expect("utility column");
    println!();
    for (metric, means, paper) in
        [("privacy", privacy_means, "~0 to ~0.4"), ("utility", utility_means, "~0.2 to ~1.0")]
    {
        let first = means.first().expect("sweep is non-empty");
        let last = means.last().expect("sweep is non-empty");
        shape_check(
            &format!("{metric} rises from {first:.3} to {last:.3} (paper: {paper})"),
            last > first,
        )?;
    }
    Ok(())
}
