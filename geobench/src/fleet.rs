//! `fleet-refresh`: keeping per-user recommendations fresh as a 10k-user
//! fleet drifts.
//!
//! Each iteration runs on the drifted fleet (every 100th user perturbed) a
//! **cold study** from an empty measurement cache (`run_cached`, `fit`,
//! `fit_per_user`, `recommend_per_user`), then [`WARM_PER_COLD`] **warm
//! refreshes**, each from the cache primed on the baseline fleet
//! (`run_cached`, `refit_per_user`, `fit`, `recommend_per_user`). Every
//! refresh must equal the study bit for bit, serving exactly the undrifted
//! users from the cache with no warnings.

use crate::calibrate::Sampler;
use crate::offline::{self, SWEEP_SEED};
use crate::report::{self, Outcome};
use crate::trace::Tracer;
use crate::{repeat_setup, reset_dir, Args, Layers, WorkDir};
use geopriv_core::prelude::*;
use geopriv_metrics::DatasetFingerprint;
use geopriv_mobility::generator::perturb_users;
use geopriv_mobility::{Dataset, UserId};
use std::path::{Path, PathBuf};
use std::time::Instant;

const CONFIG: SweepConfig =
    SweepConfig { points: 25, repetitions: 1, seed: SWEEP_SEED, parallel: true };

/// Warm refreshes timed after each cold study. A refresh takes about an
/// eighth of a study, so three triple the samples behind its median for
/// about a fifth more time per iteration.
const WARM_PER_COLD: usize = 3;

/// Mixed into `--seed` for the drift, so drift and fleet draw distinct streams.
const DRIFT_SALT: u64 = 0xD81F_7000_0000_0001;

/// The files of a directory, sorted.
fn files(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(dir).map_err(|e| e.to_string())? {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.is_file() {
            files.push(path);
        }
    }
    files.sort();
    Ok(files)
}

/// Empties a cache directory and links the primed files into it (none
/// wipes it). The cache replaces its file by renaming a new one over it, so
/// the primed copies stay intact and a reset writes no data.
fn restore(dir: &Path, primed: &[PathBuf]) -> Result<(), String> {
    reset_dir(dir).map_err(|e| e.to_string())?;
    for file in primed {
        let target = dir.join(file.file_name().ok_or("a primed file has no name")?);
        std::fs::hard_link(file, &target)
            .or_else(|_| std::fs::copy(file, &target).map(drop))
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// The inputs and the primed cache of one run.
struct Fleet {
    drifted: Dataset,
    drifting: Vec<UserId>,
    baseline_fits: PerUserFits,
    primed: Vec<PathBuf>,
    cold_dir: PathBuf,
    warm_dir: PathBuf,
}

fn set_up(args: &Args, work: &WorkDir, tracer: &mut Tracer) -> Result<Fleet, String> {
    let fleet = tracer.leaf("mobility.generate", || offline::scaled_fleet(args.seed))?;
    let drifting: Vec<UserId> = fleet.users().into_iter().step_by(100).collect();
    let drifted = tracer
        .leaf("mobility.perturb", || perturb_users(&fleet, &drifting, args.seed ^ DRIFT_SALT))
        .map_err(|e| e.to_string())?;
    let warm_dir = work.fresh("warm").map_err(|e| e.to_string())?;
    let cold_dir = work.fresh("cold").map_err(|e| e.to_string())?;
    let system = SystemDefinition::paper_geoi();
    let baseline =
        runner(&warm_dir, true).run_cached(&system, &fleet).map_err(|e| e.to_string())?;
    if baseline.stats.misses != fleet.user_count() || !baseline.stats.warnings.is_empty() {
        return Err(format!("priming an empty cache reported {:?}", baseline.stats));
    }
    let baseline_fits = Modeler::new().fit_per_user(&baseline.result).map_err(|e| e.to_string())?;
    let primed_dir = work.fresh("primed").map_err(|e| e.to_string())?;
    let mut primed = Vec::new();
    for file in files(&warm_dir)? {
        let kept = primed_dir.join(file.file_name().ok_or("a cache file has no name")?);
        std::fs::rename(&file, &kept).map_err(|e| e.to_string())?;
        primed.push(kept);
    }
    Ok(Fleet { drifted, drifting, baseline_fits, primed, cold_dir, warm_dir })
}

fn runner(dir: &Path, parallel: bool) -> ExperimentRunner {
    ExperimentRunner::with_plan(
        SweepPlan::grid(SweepConfig { parallel, ..CONFIG }).per_user().cached(dir),
    )
}

/// What one study or refresh produces.
#[derive(PartialEq)]
struct Study {
    sweep: SweepResult,
    fits: PerUserFits,
    recommendation: PerUserRecommendation,
}

fn cold_study(
    fleet: &Fleet,
    system: &SystemDefinition,
    parallel: bool,
    t: &mut Tracer,
) -> Result<(Study, CacheStats, f64), String> {
    let t0 = Instant::now();
    let cold = t
        .leaf("core.run_cached", || {
            runner(&fleet.cold_dir, parallel).run_cached(system, &fleet.drifted)
        })
        .map_err(|e| e.to_string())?;
    let run_s = t0.elapsed().as_secs_f64();
    let fitted =
        t.leaf("modeling.fit", || Modeler::new().fit(&cold.result)).map_err(|e| e.to_string())?;
    let fits = t
        .leaf("modeling.fit_per_user", || Modeler::new().fit_per_user(&cold.result))
        .map_err(|e| e.to_string())?;
    let recommendation = t
        .leaf("configurator.recommend_per_user", || {
            Configurator::new(fitted).recommend_per_user(&fits, &offline::fleet_objectives())
        })
        .map_err(|e| e.to_string())?;
    Ok((Study { sweep: cold.result, fits, recommendation }, cold.stats, run_s))
}

fn warm_refresh(
    fleet: &Fleet,
    system: &SystemDefinition,
    parallel: bool,
    t: &mut Tracer,
) -> Result<(Study, CacheStats, f64), String> {
    let t0 = Instant::now();
    let warm = t
        .leaf("core.run_cached", || {
            runner(&fleet.warm_dir, parallel).run_cached(system, &fleet.drifted)
        })
        .map_err(|e| e.to_string())?;
    let run_s = t0.elapsed().as_secs_f64();
    let fits = t
        .leaf("modeling.refit_per_user", || {
            Modeler::new().refit_per_user(&warm.result, &fleet.baseline_fits, &fleet.drifting)
        })
        .map_err(|e| e.to_string())?;
    let fitted =
        t.leaf("modeling.fit", || Modeler::new().fit(&warm.result)).map_err(|e| e.to_string())?;
    let recommendation = t
        .leaf("configurator.recommend_per_user", || {
            Configurator::new(fitted).recommend_per_user(&fits, &offline::fleet_objectives())
        })
        .map_err(|e| e.to_string())?;
    Ok((Study { sweep: warm.result, fits, recommendation }, warm.stats, run_s))
}

/// The cache contract of a warm refresh: exactly the undrifted users hit.
fn check_warm_stats(stats: &CacheStats, fleet: &Fleet) -> Result<(), String> {
    let users = fleet.drifted.user_count();
    if stats.hits == users - fleet.drifting.len()
        && stats.misses == fleet.drifting.len()
        && stats.warnings.is_empty()
    {
        Ok(())
    } else {
        Err(format!("warm refresh cache stats {stats:?}"))
    }
}

pub fn run(
    args: &Args,
    work: &WorkDir,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let system = SystemDefinition::paper_geoi();
    if args.trace {
        return traced(args, work, tracer, out, &system);
    }
    let sampler = Sampler::start();
    let (fleet, setup) =
        repeat_setup(&sampler, || set_up(args, work, &mut Tracer::new(false)), drop)?;
    out.line(format!(
        "input: {} users, {} records, {} drifted; sweep {} points x {} repetition at per-user grain",
        fleet.drifted.user_count(),
        fleet.drifted.record_count(),
        fleet.drifting.len(),
        CONFIG.points,
        CONFIG.repetitions
    ));

    let untraced = &mut Tracer::new(false);
    let (mut colds, mut warms) = (Vec::new(), Vec::new());
    let mut reference: Option<(u64, PerUserRecommendation)> = None;
    let started = Instant::now();
    while colds.len() < 3 || started.elapsed().as_secs_f64() < args.seconds {
        restore(&fleet.cold_dir, &[])?;
        let (cold, timed) = sampler.timed(|| cold_study(&fleet, &system, false, untraced));
        colds.push(timed);
        let (cold, cold_stats, _) = match cold {
            Ok(done) => done,
            Err(e) => {
                out.check(false, || format!("cold study: {e}"));
                continue;
            }
        };
        let digest = offline::sweep_digest(&cold.sweep);
        let (reference_digest, reference_recommendation) =
            reference.get_or_insert_with(|| (digest, cold.recommendation.clone()));
        out.check(
            cold_stats.misses == fleet.drifted.user_count()
                && cold_stats.warnings.is_empty()
                && digest == *reference_digest
                && cold.recommendation == *reference_recommendation,
            || format!("cold study {}: digest {digest:016x}, {cold_stats:?}", colds.len()),
        );

        for _ in 0..WARM_PER_COLD {
            restore(&fleet.warm_dir, &fleet.primed)?;
            let (warm, timed) = sampler.timed(|| warm_refresh(&fleet, &system, false, untraced));
            warms.push(timed);
            match warm {
                Ok((warm, stats, _)) => {
                    let checked = check_warm_stats(&stats, &fleet);
                    out.check(checked.is_ok() && warm == cold, || {
                        format!(
                            "warm refresh {}: {checked:?}, equal to cold: {}",
                            warms.len(),
                            warm == cold
                        )
                    });
                }
                Err(e) => out.check(false, || format!("warm refresh: {e}")),
            }
        }
    }

    if let Some((digest, recommendation)) = &reference {
        out.line(format!(
            "sweep digest {digest:016x}; {} feasible and {} fallback users",
            recommendation.feasible_count(),
            recommendation.fallback_count()
        ));
    }
    let speed = sampler.finish()?;
    out.speed(&speed);
    let setup_s = out.scaled_timing("setup_s", &speed, &setup);
    let cold_s = out.scaled_timing("study_cold_s", &speed, &colds);
    let warm_s = out.scaled_timing("refresh_warm_s", &speed, &warms);
    out.metric("setup_s", setup_s, "s");
    out.metric("primary_ms", cold_s * 1e3, "ms");
    out.metric("secondary_ms", warm_s * 1e3, "ms");
    out.metric("throughput_per_s", fleet.drifted.user_count() as f64 / cold_s, "1/s");
    out.metric("peak_rss_mb", report::peak_rss_mb(), "MB");
    Ok(())
}

/// One cold study and one warm refresh, replayed through the layers'
/// public calls.
fn traced(
    args: &Args,
    work: &WorkDir,
    tracer: &mut Tracer,
    out: &mut Outcome,
    system: &SystemDefinition,
) -> Result<(), String> {
    let fleet = set_up(args, work, tracer)?;
    let users: Vec<(usize, UserId)> = fleet.drifted.users().into_iter().enumerate().collect();
    let drifted_users: Vec<(usize, UserId)> =
        users.iter().copied().filter(|(_, u)| fleet.drifting.contains(u)).collect();

    // The untraced reference, at the runner's own thread count.
    let untraced = &mut Tracer::new(false);
    restore(&fleet.cold_dir, &[])?;
    let (cold, _, cold_parallel_s) = cold_study(&fleet, system, true, untraced)?;
    restore(&fleet.warm_dir, &fleet.primed)?;
    let (warm, _, _) = warm_refresh(&fleet, system, true, untraced)?;
    if warm != cold {
        return Err("the warm refresh differs from the cold study".to_string());
    }

    // Replay without spans first: the tracing overhead baseline, and the
    // measurement cost the core's self times are net of.
    let t0 = Instant::now();
    let replay = offline::replay_users(untraced, system, &fleet.drifted, CONFIG, &users)?;
    let untraced_s = t0.elapsed().as_secs_f64();
    offline::check_user_sweep(&cold.sweep, &replay)?;
    let t0 = Instant::now();
    offline::replay_users(untraced, system, &fleet.drifted, CONFIG, &drifted_users)?;
    let untraced_misses_s = t0.elapsed().as_secs_f64();

    let (cold_run_s, cold_replay_s) =
        tracer.span("study_cold", |t| -> Result<(f64, f64), String> {
            restore(&fleet.cold_dir, &[])?;
            let (study, stats, run_s) = cold_study(&fleet, system, false, t)?;
            if study != cold || stats.misses != users.len() {
                return Err("the traced cold study differs".to_string());
            }
            t.leaf("metrics.fingerprint", || DatasetFingerprint::of(&fleet.drifted).per_user());
            let t0 = Instant::now();
            let traced = t.span("replay", |t| {
                offline::replay_users(t, system, &fleet.drifted, CONFIG, &users)
            })?;
            let replay_s = t0.elapsed().as_secs_f64();
            offline::check_user_sweep(&cold.sweep, &traced)?;
            Ok((run_s, replay_s))
        })?;
    out.check(true, String::new);

    let (warm_run_s, stats, file_bytes) =
        tracer.span("refresh_warm", |t| -> Result<_, String> {
            restore(&fleet.warm_dir, &fleet.primed)?;
            let (study, stats, run_s) = warm_refresh(&fleet, system, false, t)?;
            check_warm_stats(&stats, &fleet)?;
            if study != cold {
                return Err("the traced warm refresh differs from the cold study".to_string());
            }
            let mut file_bytes = 0;
            for file in files(&fleet.warm_dir)? {
                file_bytes += std::fs::metadata(file).map_err(|e| e.to_string())?.len();
            }
            t.leaf("metrics.fingerprint", || DatasetFingerprint::of(&fleet.drifted).per_user());
            let misses = t.span("replay", |t| {
                offline::replay_users(t, system, &fleet.drifted, CONFIG, &drifted_users)
            })?;
            for ((index, user), (_, samples)) in drifted_users.iter().zip(&misses) {
                let cold_samples = &replay[*index].1;
                let same = samples
                    .iter()
                    .flatten()
                    .flatten()
                    .zip(cold_samples.iter().flatten().flatten())
                    .all(|(a, b)| {
                        a.value.to_bits() == b.value.to_bits()
                            && a.weight == b.weight
                            && a.breakdown.map(f64::to_bits) == b.breakdown.map(f64::to_bits)
                    });
                if !same {
                    return Err(format!("the re-measured samples of user {user} differ"));
                }
            }
            Ok((run_s, stats, file_bytes))
        })?;
    out.check(true, String::new);

    let totals = tracer.totals();
    let get = |name: &str| totals.get(name).copied().unwrap_or_default();
    let (instantiate, protect) = (get("lppm.instantiate"), get("lppm.protect"));
    let (poi_prep, area_prep) =
        (get("metrics.poi_retrieval.prepare"), get("metrics.area_coverage.prepare"));
    let (poi_eval, area_eval) =
        (get("metrics.poi_retrieval.evaluate"), get("metrics.area_coverage.evaluate"));
    let fingerprint = get("metrics.fingerprint");
    let (fit, fit_per_user, refit) =
        (get("modeling.fit"), get("modeling.fit_per_user"), get("modeling.refit_per_user"));
    let recommend = get("configurator.recommend_per_user");
    let lppm_s = instantiate.self_s + protect.self_s;
    let metrics_s = poi_prep.self_s
        + area_prep.self_s
        + poi_eval.self_s
        + area_eval.self_s
        + fingerprint.self_s;
    // Each fingerprint span is one call; the cold and warm ones cost the same.
    let fingerprint_each = fingerprint.self_s / fingerprint.count.max(1) as f64;
    let cold_self = cold_run_s - fingerprint_each - untraced_s;
    let warm_self = warm_run_s - fingerprint_each - untraced_misses_s;
    let modeling_s = fit.self_s + fit_per_user.self_s + refit.self_s;
    let operation_s = cold_run_s + warm_run_s + modeling_s + recommend.self_s;
    let drifted_records: usize = drifted_users
        .iter()
        .map(|&(i, _)| fleet.drifted.user_slice(i..i + 1).map_or(0, |slice| slice.record_count()))
        .sum();
    let records = ((fleet.drifted.record_count() + drifted_records) * CONFIG.points) as f64
        * CONFIG.repetitions as f64;
    let threads = std::thread::available_parallelism().map_or(1, usize::from) as f64;
    let attempted = cold.fits.len() as f64;

    let mut layers = Layers::default();
    layers.set(
        "mobility.generate_s",
        get("mobility.generate").self_s + get("mobility.perturb").self_s,
    );
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
    layers.set("metrics.fingerprint_s", fingerprint_each);
    layers.set("metrics.share", metrics_s / operation_s);
    layers.set("core.parallel_efficiency", cold_run_s / (threads * cold_parallel_s));
    layers.set("core.run_cached_self_s", cold_self + warm_self);
    layers.set("core.run_cached_cold_self_s", cold_self);
    layers.set("core.run_cached_warm_self_s", warm_self);
    layers.set("core.cache.hits", stats.hits as f64);
    layers.set("core.cache.misses", stats.misses as f64);
    layers.set("core.cache.hit_ratio", stats.hits as f64 / stats.users.max(1) as f64);
    layers.set("core.cache.warnings", stats.warnings.len() as f64);
    layers.set("core.cache.file_bytes", file_bytes as f64);
    layers.set("core.share", (cold_self + warm_self) / operation_s);
    layers.set("modeling.fit_s", fit.self_s);
    layers.set("modeling.fit_per_user_s", fit_per_user.self_s);
    layers.set("modeling.refit_per_user_s", refit.self_s);
    layers.set("modeling.users_fitted", cold.fits.fitted_count() as f64);
    layers.set("modeling.users_attempted", attempted);
    layers.set("modeling.share", modeling_s / operation_s);
    layers.set("configurator.recommend_per_user_s", recommend.self_s);
    layers.set(
        "configurator.feasible_ratio",
        cold.recommendation.feasible_count() as f64 / attempted,
    );
    layers.set("configurator.share", recommend.self_s / operation_s);
    layers.set("trace.overhead_ratio", cold_replay_s / untraced_s - 1.0);
    out.line(format!(
        "traced iteration: cold run_cached {} s sequential vs {} s on {threads} threads, warm \
         run_cached {} s; cold replay {} s traced vs {} s untraced",
        report::fmt(cold_run_s),
        report::fmt(cold_parallel_s),
        report::fmt(warm_run_s),
        report::fmt(cold_replay_s),
        report::fmt(untraced_s)
    ));
    layers.publish(out);
    Ok(())
}
