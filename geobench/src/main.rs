//! The geopriv benchmark.
//!
//! ```text
//! cargo run --release --manifest-path geobench/Cargo.toml -- \
//!     --workload paper-configure|fleet-refresh|serve-stream \
//!     --seed <n> --seconds <s> --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off; `--trace 1`
//! replays one iteration of the workload through the layers' public calls,
//! inside spans, and reports per-layer self times and counts. Both print a
//! human report (host stamp, every metric with its unit and sample count)
//! and end with one JSON line: `correct`, `attempted`, `failed`, `metrics`.
//! See `geobench/README.md` for the workloads and metrics.

mod calibrate;
mod configure;
mod fleet;
mod offline;
mod report;
mod serve;
mod trace;

use report::Outcome;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<String, String> {
        let at = argv.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        argv.get(at + 1).cloned().ok_or(format!("{flag} needs a value"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?.parse().map_err(|_| format!("{flag} must be a whole number"))
    };
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    let trace = match number("--trace")? {
        0 => false,
        1 => true,
        _ => return Err("--trace must be 0 or 1".to_string()),
    };
    Ok(Args {
        workload: value("--workload")?,
        seed: number("--seed")?,
        seconds: seconds as f64,
        trace,
    })
}

/// Every per-layer metric of the traced run, with its unit, in print order.
/// A workload that does not exercise a layer reports it as 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("mobility.generate_s", "s"),
    ("lppm.instantiate_s", "s"),
    ("lppm.instantiate_calls", "count"),
    ("lppm.protect_s", "s"),
    ("lppm.protect_calls", "count"),
    ("lppm.protect_ns_per_record", "ns"),
    ("lppm.share", "ratio"),
    ("metrics.prepare_s", "s"),
    ("metrics.poi_retrieval.prepare_calls", "count"),
    ("metrics.area_coverage.prepare_calls", "count"),
    ("metrics.poi_retrieval.evaluate_s", "s"),
    ("metrics.area_coverage.evaluate_s", "s"),
    ("metrics.evaluate_calls", "count"),
    ("metrics.fingerprint_s", "s"),
    ("metrics.share", "ratio"),
    ("core.sweep_self_s", "s"),
    ("core.parallel_efficiency", "ratio"),
    ("core.run_cached_self_s", "s"),
    ("core.run_cached_cold_self_s", "s"),
    ("core.run_cached_warm_self_s", "s"),
    ("core.cache.hits", "count"),
    ("core.cache.misses", "count"),
    ("core.cache.hit_ratio", "ratio"),
    ("core.cache.warnings", "count"),
    ("core.cache.file_bytes", "bytes"),
    ("core.share", "ratio"),
    ("modeling.fit_s", "s"),
    ("modeling.fit_per_user_s", "s"),
    ("modeling.refit_per_user_s", "s"),
    ("modeling.users_fitted", "count"),
    ("modeling.users_attempted", "count"),
    ("modeling.share", "ratio"),
    ("configurator.recommend_s", "s"),
    ("configurator.recommend_per_user_s", "s"),
    ("configurator.feasible_ratio", "ratio"),
    ("configurator.share", "ratio"),
    ("serve.middleware_ns", "ns"),
    ("serve.protocol.parse_ns", "ns"),
    ("serve.protocol.render_ns", "ns"),
    ("serve.registry.open_ns", "ns"),
    ("serve.registry.push_ns", "ns"),
    ("serve.transport_ns", "ns"),
    ("serve.middleware.share", "ratio"),
    ("serve.protocol.share", "ratio"),
    ("serve.registry.share", "ratio"),
    ("serve.transport.share", "ratio"),
    ("serve.generator_lag_us", "us"),
    ("serve.sessions_opened", "count"),
    ("serve.non200", "count"),
    ("trace.overhead_ratio", "ratio"),
];

/// The per-layer values of one traced run, keyed by [`PER_LAYER`] name.
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Sets one value; the name must be one of [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "unknown per-layer metric {name}");
        self.0.insert(name, value);
    }

    /// Moves every per-layer metric (0 where unset) into the outcome and its
    /// human report, in [`PER_LAYER`] order: each layer's share follows its
    /// times.
    pub fn publish(self, out: &mut Outcome) {
        for &(name, unit) in PER_LAYER {
            let value = self.0.get(name).copied().unwrap_or(0.0);
            out.line(format!("{name}: {} {unit}", report::fmt(value)));
            out.metric(name, value, unit);
        }
    }
}

/// Empties `dir`, creating it when absent.
pub fn reset_dir(dir: &Path) -> std::io::Result<()> {
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    std::fs::create_dir_all(dir)
}

/// A working directory the run owns, removed when dropped.
pub struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> std::io::Result<WorkDir> {
        let dir = Path::new(".geobench").join(format!("work-{}", std::process::id()));
        reset_dir(&dir)?;
        Ok(WorkDir(dir))
    }

    /// A fresh, empty subdirectory.
    pub fn fresh(&self, name: &str) -> std::io::Result<PathBuf> {
        let dir = self.0.join(name);
        reset_dir(&dir)?;
        Ok(dir)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leaves `.geobench` itself when it still holds span files.
        let _ = std::fs::remove_dir(Path::new(".geobench"));
    }
}

/// Set-up runs at least this many times per run, and until it has taken
/// [`SETUP_SECONDS`] in total; `setup_s` is the median.
const SETUP_RUNS: usize = 3;
const SETUP_SECONDS: f64 = 1.0;

/// Runs `setup` repeatedly, timing each, hands every result but the last to
/// `discard`, and returns the last with every set-up's interval.
pub fn repeat_setup<T>(
    sampler: &calibrate::Sampler,
    mut setup: impl FnMut() -> Result<T, String>,
    mut discard: impl FnMut(T),
) -> Result<(T, Vec<calibrate::Timed>), String> {
    let mut timings: Vec<calibrate::Timed> = Vec::new();
    let mut last = None;
    while timings.len() < SETUP_RUNS
        || timings.iter().map(|t| t.wall()).sum::<f64>() < SETUP_SECONDS
    {
        let (fresh, timed) = sampler.timed(&mut setup);
        timings.push(timed);
        if let Some(previous) = last.replace(fresh?) {
            discard(previous);
        }
    }
    Ok((last.ok_or("no set-up ran")?, timings))
}

fn run(args: &Args) -> Result<Outcome, String> {
    let work = WorkDir::create().map_err(|e| format!("cannot create the work directory: {e}"))?;
    let mut out = Outcome::default();
    let mut tracer = trace::Tracer::new(args.trace);
    if !args.trace {
        let core = calibrate::pin_to_one_core()?;
        out.line(format!("timed work and the reference loop share core {core}"));
    }
    match args.workload.as_str() {
        "paper-configure" => configure::run(args, &mut tracer, &mut out)?,
        "fleet-refresh" => fleet::run(args, &work, &mut tracer, &mut out)?,
        "serve-stream" => serve::run(args, &mut tracer, &mut out)?,
        other => return Err(format!("unknown workload {other:?}")),
    }
    if args.trace {
        let path = Path::new(".geobench").join(format!("spans-{}.tsv", args.workload));
        tracer.write(&path).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        out.line(format!("{} spans written to {}", tracer.len(), path.display()));
    }
    Ok(out)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("geobench: {e}");
            eprintln!(
                "usage: geobench --workload paper-configure|fleet-refresh|serve-stream \
                 --seed <n> --seconds <s> --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    println!(
        "geobench: workload {}, seed {}, seconds {}, trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("{}", report::host_stamp());
    match run(&args) {
        Ok(outcome) => {
            for line in &outcome.lines {
                println!("{line}");
            }
            println!("{}", report::result_json(&outcome));
        }
        Err(e) => {
            eprintln!("geobench: {e}");
            std::process::exit(1);
        }
    }
}
