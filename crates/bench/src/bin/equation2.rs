//! Reproduces **Equation 2** of the paper: the log-linear relationship
//! between ε and the two metrics, fitted on the non-saturated zone of the
//! Figure 1 sweep.
//!
//! ```text
//! ln ε = (Pr − a)/b = (Ut − α)/β
//! paper fit: a = 0.84, b = 0.17, α = 1.21, β = 0.09
//! ```
//!
//! ```text
//! cargo run -p geopriv-bench --release --bin equation2 [-- --fidelity smoke|standard|full]
//! ```

use geopriv_bench::{fidelity_from_args, reproduction_dataset, run_paper_sweep, shape_check};
use geopriv_core::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let fidelity = fidelity_from_args();
    eprintln!("building the synthetic SF taxi dataset ({fidelity:?})…");
    let dataset = reproduction_dataset(fidelity);
    eprintln!("sweeping epsilon and fitting Equation 2…");
    let sweep = run_paper_sweep(&dataset, fidelity)?;
    let fitted = Modeler::new().fit(&sweep)?;
    let privacy = &fitted
        .model(&MetricId::new("poi-retrieval"))
        .expect("privacy model")
        .axis()
        .expect("1-D")
        .model;
    let utility = &fitted
        .model(&MetricId::new("area-coverage"))
        .expect("utility model")
        .axis()
        .expect("1-D")
        .model;

    println!("== Equation 2: fitted coefficients ==");
    println!("{}", report::suite_report(&fitted));

    println!("== Side-by-side with the paper ==");
    println!("{:<12} {:>12} {:>12}", "coefficient", "paper", "measured");
    println!("{:<12} {:>12.2} {:>12.3}", "a (privacy)", 0.84, privacy.intercept());
    println!("{:<12} {:>12.2} {:>12.3}", "b (privacy)", 0.17, privacy.slope());
    println!("{:<12} {:>12.2} {:>12.3}", "α (utility)", 1.21, utility.intercept());
    println!("{:<12} {:>12.2} {:>12.3}", "β (utility)", 0.09, utility.slope());
    println!();
    println!(
        "fit quality: R²(privacy) = {:.3}, R²(utility) = {:.3}",
        privacy.r_squared(),
        utility.r_squared()
    );
    println!();
    shape_check("privacy increases with epsilon (b > 0)", privacy.slope() > 0.0)?;
    shape_check("utility increases with epsilon (β > 0)", utility.slope() > 0.0)?;
    shape_check(
        "privacy responds more steeply than utility (b > β)",
        privacy.slope() > utility.slope(),
    )?;
    Ok(())
}
