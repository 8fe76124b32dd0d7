//! `paper-configure`: the paper's scenario at full fidelity, from the
//! in-memory dataset to a recommendation.
//!
//! One operation is a configure: sweep GEO-I ε over 33 points × 3
//! repetitions at dataset grain on the 50-driver fleet, fit Equation 2 and
//! invert it for the paper's objectives. Every configure must reproduce the
//! first one's sweep digest and recommend an ε that passes the
//! operating-point check. After each configure the recommendation is
//! verified, as in the paper: protect the dataset once at the recommended ε
//! and measure both metrics.

use crate::calibrate::Sampler;
use crate::offline::{self, SWEEP_SEED};
use crate::report::{self, Outcome};
use crate::trace::Tracer;
use crate::{repeat_setup, Args, Layers};
use geopriv_core::prelude::*;
use geopriv_metrics::{AreaCoverage, PoiRetrieval};
use geopriv_mobility::Dataset;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

const CONFIG: SweepConfig =
    SweepConfig { points: 33, repetitions: 3, seed: SWEEP_SEED, parallel: true };

/// Verifications timed after each configure, and the seed of their
/// protection run.
const VERIFICATIONS: usize = 3;
const VERIFY_SEED: u64 = SWEEP_SEED ^ 0xA5A5;

/// The paper's operating point is ε = 0.01 m⁻¹; a recommendation passes when
/// it lies within a factor of five of it, inside its own feasible interval,
/// with predictions meeting both objectives.
fn operating_point_check(recommendation: &Recommendation) -> Result<f64, String> {
    let epsilon = recommendation.point.single().ok_or("recommendation is not one-axis")?;
    let (lo, hi) = recommendation.feasible.first().map(|(_, range)| *range).ok_or("no range")?;
    let privacy = recommendation.predicted(&MetricId::new(PoiRetrieval::ID)).unwrap_or(f64::NAN);
    let utility = recommendation.predicted(&MetricId::new(AreaCoverage::ID)).unwrap_or(f64::NAN);
    let ok = (0.002..=0.05).contains(&epsilon)
        && (lo..=hi).contains(&epsilon)
        && privacy <= 0.10 + 1e-9
        && utility >= 0.80 - 1e-9;
    if ok {
        Ok(epsilon)
    } else {
        Err(format!(
            "operating point ε = {epsilon} (feasible [{lo}, {hi}], predicted privacy {privacy}, \
             utility {utility}) fails the check"
        ))
    }
}

fn configure(
    runner: &ExperimentRunner,
    system: &SystemDefinition,
    dataset: &Dataset,
) -> Result<(SweepResult, Recommendation), String> {
    let sweep = runner.run(system, dataset).map_err(|e| e.to_string())?;
    let fitted = Modeler::new().fit(&sweep).map_err(|e| e.to_string())?;
    let recommendation = Configurator::new(fitted)
        .recommend(&Objectives::paper_example())
        .map_err(|e| e.to_string())?;
    Ok((sweep, recommendation))
}

/// The suite's values on the dataset protected once at the recommendation.
fn verify(
    system: &SystemDefinition,
    dataset: &Dataset,
    recommendation: &Recommendation,
) -> Result<Vec<f64>, String> {
    let lppm = system.factory().instantiate_at(&recommendation.point).map_err(|e| e.to_string())?;
    let protected = lppm
        .protect_dataset(dataset, &mut StdRng::seed_from_u64(VERIFY_SEED))
        .map_err(|e| e.to_string())?;
    system
        .suite()
        .iter()
        .map(|metric| metric.evaluate(dataset, &protected).map(|v| v.value()))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())
}

pub fn run(args: &Args, tracer: &mut Tracer, out: &mut Outcome) -> Result<(), String> {
    let system = SystemDefinition::paper_geoi();
    if args.trace {
        return traced(args, tracer, out, &system);
    }
    let sampler = Sampler::start();
    let (dataset, setup) = repeat_setup(&sampler, || offline::paper_fleet(args.seed), drop)?;
    out.line(format!(
        "input: {} drivers, {} records; sweep {} points x {} repetitions",
        dataset.user_count(),
        dataset.record_count(),
        CONFIG.points,
        CONFIG.repetitions
    ));

    // One core runs the timed work, so the runner's pool would only take turns.
    let runner = ExperimentRunner::new(SweepConfig { parallel: false, ..CONFIG });
    let (mut configures, mut verifications) = (Vec::new(), Vec::new());
    let mut reference: Option<(u64, f64)> = None;
    let mut measured: Option<Vec<f64>> = None;
    let started = Instant::now();
    while configures.len() < 3 || started.elapsed().as_secs_f64() < args.seconds {
        let (result, timed) = sampler.timed(|| configure(&runner, &system, &dataset));
        configures.push(timed);
        let (sweep, recommendation) = match result {
            Ok(done) => done,
            Err(e) => {
                out.check(false, || format!("configure: {e}"));
                continue;
            }
        };
        let digest = offline::sweep_digest(&sweep);
        let checked = operating_point_check(&recommendation);
        let epsilon = *checked.as_ref().unwrap_or(&f64::NAN);
        let reference = *reference.get_or_insert((digest, epsilon));
        out.check(
            checked.is_ok() && (digest, epsilon.to_bits()) == (reference.0, reference.1.to_bits()),
            || format!("configure {}: digest {digest:016x}, {:?}", configures.len(), checked),
        );

        for _ in 0..VERIFICATIONS {
            let (values, timed) = sampler.timed(|| verify(&system, &dataset, &recommendation));
            verifications.push(timed);
            let reference = measured.get_or_insert_with(|| values.clone().unwrap_or_default());
            if values.as_ref().ok() != Some(reference) {
                out.check(false, || format!("verification is not deterministic: {values:?}"));
            }
        }
    }

    let (digest, epsilon) = reference.unwrap_or((0, f64::NAN));
    out.line(format!(
        "sweep digest {digest:016x}, recommended ε = {epsilon}; measured there (poi-retrieval, \
         area-coverage) = {:?}",
        measured.unwrap_or_default()
    ));
    let speed = sampler.finish()?;
    out.speed(&speed);
    let setup_s = out.scaled_timing("setup_s", &speed, &setup);
    let configure_s = out.scaled_timing("configure_s", &speed, &configures);
    let verify_s = out.scaled_timing("verify_s (protect + evaluate at ε)", &speed, &verifications);
    let records = (dataset.record_count() * CONFIG.points * CONFIG.repetitions) as f64;
    out.metric("setup_s", setup_s, "s");
    out.metric("primary_ms", configure_s * 1e3, "ms");
    out.metric("secondary_ms", verify_s * 1e3, "ms");
    out.metric("throughput_per_s", records / configure_s, "1/s");
    out.metric("peak_rss_mb", report::peak_rss_mb(), "MB");
    Ok(())
}

/// One configure, replayed through the layers' public calls.
fn traced(
    args: &Args,
    tracer: &mut Tracer,
    out: &mut Outcome,
    system: &SystemDefinition,
) -> Result<(), String> {
    let mut layers = Layers::default();
    let dataset = &tracer.leaf("mobility.generate", || offline::paper_fleet(args.seed))?;

    // The untraced reference, at the runner's own thread count.
    let t0 = Instant::now();
    let (sweep, recommendation) = configure(&ExperimentRunner::new(CONFIG), system, dataset)?;
    let parallel_s = t0.elapsed().as_secs_f64();
    operating_point_check(&recommendation)?;

    // Replay without spans first: the tracing overhead baseline.
    let t0 = Instant::now();
    let untraced = offline::replay_dataset_sweep(&mut Tracer::new(false), system, dataset, CONFIG)?;
    let untraced_s = t0.elapsed().as_secs_f64();
    offline::check_dataset_sweep(&sweep, &untraced)?;

    let sequential = SweepConfig { parallel: false, ..CONFIG };
    let (sequential_s, replay_s) = tracer.span("configure", |t| -> Result<(f64, f64), String> {
        let t0 = Instant::now();
        let serial = t
            .leaf("core.run", || ExperimentRunner::new(sequential).run(system, dataset))
            .map_err(|e| e.to_string())?;
        let sequential_s = t0.elapsed().as_secs_f64();
        if serial != sweep {
            return Err("the sequential sweep differs from the parallel one".to_string());
        }
        let t0 = Instant::now();
        let replay =
            t.span("replay", |t| offline::replay_dataset_sweep(t, system, dataset, CONFIG))?;
        let replay_s = t0.elapsed().as_secs_f64();
        offline::check_dataset_sweep(&sweep, &replay)?;
        let fitted =
            t.leaf("modeling.fit", || Modeler::new().fit(&sweep)).map_err(|e| e.to_string())?;
        let again = t
            .leaf("configurator.recommend", || {
                Configurator::new(fitted).recommend(&Objectives::paper_example())
            })
            .map_err(|e| e.to_string())?;
        if again != recommendation {
            return Err("the traced recommendation differs".to_string());
        }
        Ok((sequential_s, replay_s))
    })?;
    out.check(true, String::new);

    let totals = tracer.totals();
    let get = |name: &str| totals.get(name).copied().unwrap_or_default();
    let (instantiate, protect) = (get("lppm.instantiate"), get("lppm.protect"));
    let (poi_prep, area_prep) =
        (get("metrics.poi_retrieval.prepare"), get("metrics.area_coverage.prepare"));
    let (poi_eval, area_eval) =
        (get("metrics.poi_retrieval.evaluate"), get("metrics.area_coverage.evaluate"));
    let (fit, recommend) = (get("modeling.fit"), get("configurator.recommend"));
    let lppm_s = instantiate.self_s + protect.self_s;
    let metrics_s = poi_prep.self_s + area_prep.self_s + poi_eval.self_s + area_eval.self_s;
    let core_s = sequential_s - untraced_s;
    let operation_s = sequential_s + fit.self_s + recommend.self_s;
    let records = (dataset.record_count() as f64) * protect.count as f64;
    let threads = std::thread::available_parallelism().map_or(1, usize::from) as f64;

    layers.set("mobility.generate_s", get("mobility.generate").self_s);
    layers.set("lppm.instantiate_s", instantiate.self_s);
    layers.set("lppm.instantiate_calls", instantiate.count as f64);
    layers.set("lppm.protect_s", protect.self_s);
    layers.set("lppm.protect_calls", protect.count as f64);
    layers.set("lppm.protect_ns_per_record", protect.self_s * 1e9 / records);
    layers.set("lppm.share", lppm_s / operation_s);
    layers.set("metrics.prepare_s", poi_prep.self_s + area_prep.self_s);
    layers.set("metrics.poi_retrieval.prepare_calls", poi_prep.count as f64);
    layers.set("metrics.area_coverage.prepare_calls", area_prep.count as f64);
    layers.set("metrics.poi_retrieval.evaluate_s", poi_eval.self_s);
    layers.set("metrics.area_coverage.evaluate_s", area_eval.self_s);
    layers.set("metrics.evaluate_calls", (poi_eval.count + area_eval.count) as f64);
    layers.set("metrics.share", metrics_s / operation_s);
    layers.set("core.sweep_self_s", core_s);
    layers.set("core.parallel_efficiency", sequential_s / (threads * parallel_s));
    layers.set("core.share", core_s / operation_s);
    layers.set("modeling.fit_s", fit.self_s);
    layers.set("modeling.share", fit.self_s / operation_s);
    layers.set("configurator.recommend_s", recommend.self_s);
    layers.set("configurator.share", recommend.self_s / operation_s);
    layers.set("trace.overhead_ratio", replay_s / untraced_s - 1.0);
    out.line(format!(
        "traced configure: sequential sweep {} s, parallel {} s on {threads} threads; replay {} s \
         traced vs {} s untraced; protect + area-coverage evaluate = {:.1} % of the sequential \
         configure",
        report::fmt(sequential_s),
        report::fmt(parallel_s),
        report::fmt(replay_s),
        report::fmt(untraced_s),
        100.0 * (protect.self_s + area_eval.self_s) / operation_s
    ));
    layers.publish(out);
    Ok(())
}
