//! `serve-stream`: enforcing per-user recommendations online.
//!
//! A `GeoPrivServer` runs the deployed `ServeConfig::default()` (rate limiter
//! on) over a registry loaded from the per-user recommendation of the
//! 10k-user fleet. Every fleet record becomes one `POST /protect`, sent in
//! global time order over one keep-alive connection by a single-threaded
//! open-loop generator: rounds of light, heavy and closed-loop segments,
//! then a rate ladder that searches for capacity, then the rest of the
//! stream as fast as the server answers. Every request is timed from when
//! it was due.
//!
//! Every response must be a 200 equal to the offline replay of the same
//! stream (`from_json` → `AssignmentRegistry::protect` →
//! `protect_response_json` on an identically loaded registry), and a sample
//! of users' released streams must equal the offline `protect_dataset` of
//! their records under `geopriv_serve::derive_user_seed`.

use crate::calibrate::{Sampler, Speed, Timed as Interval};
use crate::offline::{self, Fnv};
use crate::report::{self, Outcome};
use crate::trace::Tracer;
use crate::{repeat_setup, Args, Layers};
use geopriv_core::json::JsonValue;
use geopriv_core::prelude::*;
use geopriv_mobility::Dataset;
use geopriv_serve::middleware::{
    HttpRequest, HttpResponse, MetricsLayer, PanicCatch, RateLimit, Timeout,
};
use geopriv_serve::protocol::protect_response_json;
use geopriv_serve::{
    derive_user_seed, AssignmentRegistry, GeoPrivServer, HttpClient, MiddlewareStack,
    ProtectRequest, RequestMetrics, ServeConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The service's master seed: deployment configuration, fixed across runs.
const SERVE_SEED: u64 = 20161212;

const STUDY: SweepConfig =
    SweepConfig { points: 25, repetitions: 1, seed: offline::SWEEP_SEED, parallel: true };

/// The two fixed offered rates, updates per second: about a tenth and a
/// third of the ≈19k updates/s one connection sustains on an idle 2-core VM.
const LIGHT_RATE: f64 = 2_000.0;
const HEAVY_RATE: f64 = 6_000.0;
/// Updates per segment. Each segment restarts its schedule, and the
/// statistics are medians over segments: a stall of the host (a few ms
/// without a CPU) or a slow spell below the offered rate then delays the
/// updates of a few segments, not every later update of the run.
const SEGMENT: usize = 1_000;
/// One round sends a light segment, this many heavy segments and one
/// closed-loop segment (≈1 s on an idle host). Rounds repeat for this share
/// of `--seconds`.
const HEAVY_PER_ROUND: usize = 3;
const ROUNDS_SHARE: f64 = 0.25;
/// After the first pass, whole closed-loop passes fill the rest of the run,
/// at least this many; the bounded metrics come from them.
const CLOSED_PASSES: usize = 2;
/// Updates per ladder rung, and the latency limit a rung must meet.
const RUNG: usize = 4_000;
const LIMIT_S: f64 = 1e-3;
/// Users of the recommendation excerpt loaded through the JSON wire format.
const WIRE_EXCERPT: usize = 200;
/// Every this-many-th user's released stream is checked against the offline
/// `protect_dataset`.
const SAMPLE_EVERY: usize = 500;

/// The generated inputs of one run.
struct Inputs {
    fleet: Dataset,
    /// The per-user recommendation the registry serves.
    recommendation: PerUserRecommendation,
    /// `(user, body)` per update, in global time order.
    stream: Vec<(u64, String)>,
}

fn registry(recommendation: &PerUserRecommendation) -> Result<AssignmentRegistry, String> {
    AssignmentRegistry::load(
        Box::new(GeoIndistinguishabilityFactory::new()),
        recommendation,
        SERVE_SEED,
    )
    .map_err(|e| e.to_string())
}

fn registry_from_json(json: &str) -> Result<AssignmentRegistry, String> {
    AssignmentRegistry::from_json(Box::new(GeoIndistinguishabilityFactory::new()), json, SERVE_SEED)
        .map_err(|e| e.to_string())
}

fn set_up(args: &Args, tracer: &mut Tracer) -> Result<(Inputs, GeoPrivServer), String> {
    let fleet = tracer.leaf("mobility.generate", || offline::scaled_fleet(args.seed))?;
    let system = SystemDefinition::paper_geoi();
    let sweep = ExperimentRunner::with_plan(SweepPlan::grid(STUDY).per_user())
        .run(&system, &fleet)
        .map_err(|e| e.to_string())?;
    let fitted = Modeler::new().fit(&sweep).map_err(|e| e.to_string())?;
    let fits = Modeler::new().fit_per_user(&sweep).map_err(|e| e.to_string())?;
    let recommendation = Configurator::new(fitted)
        .recommend_per_user(&fits, &offline::fleet_objectives())
        .map_err(|e| e.to_string())?;
    // The 10k-user document takes minutes through `from_json`: the JSON
    // parser re-validates the rest of the input for every string character,
    // so its cost grows with the square of the document size. The registry
    // is therefore loaded in memory with `AssignmentRegistry::load` (what
    // `from_json` calls after parsing), and the wire format is exercised on
    // an excerpt that must round-trip exactly.
    let excerpt = PerUserRecommendation {
        dataset: recommendation.dataset.clone(),
        users: recommendation.users.iter().take(WIRE_EXCERPT).cloned().collect(),
    };
    let wire = geopriv_core::report::per_user_recommendation_to_json(&excerpt);
    let (from_wire, in_memory) = (registry_from_json(&wire)?, registry(&excerpt)?);
    if from_wire.assigned_users() != excerpt.users.len()
        || excerpt.users.iter().any(|row| {
            let user = row.user.value();
            from_wire.assignment_for(user) != in_memory.assignment_for(user)
        })
    {
        return Err("the recommendation does not round-trip through its JSON wire format".into());
    }

    let mut records: Vec<(f64, u64, f64, f64)> = Vec::with_capacity(fleet.record_count());
    for trace in &fleet {
        let user = trace.user().value();
        for ((t, lat), lon) in
            trace.timestamps().iter().zip(trace.latitudes()).zip(trace.longitudes())
        {
            records.push((*t, user, *lat, *lon));
        }
    }
    // Stable: a user's records keep their trace order at equal timestamps.
    records.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let stream = records
        .into_iter()
        .map(|(t, user, lat, lon)| (user, ProtectRequest { user, t, lat, lon }.to_json()))
        .collect();

    let server = GeoPrivServer::start(registry(&recommendation)?, &ServeConfig::default())
        .map_err(|e| e.to_string())?;
    Ok((Inputs { fleet, recommendation, stream }, server))
}

/// Sleeps, then spins, until `due`.
fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_millis(2) {
            std::thread::sleep(left - Duration::from_millis(1));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// One update as the generator saw it.
#[derive(Clone, Copy, Default)]
struct Timed {
    /// Due → response, seconds.
    latency: f64,
    /// Due → sent, seconds (how late the generator ran).
    lag: f64,
    /// Sent → response, seconds.
    round_trip: f64,
}

/// The updates of one kind of segment (or one ladder rung).
#[derive(Default)]
struct Phase {
    timed: Vec<Timed>,
    /// The interval of each whole segment.
    segments: Vec<Interval>,
    elapsed: f64,
    non200: usize,
}

impl Phase {
    fn extend(&mut self, other: Phase) {
        self.timed.extend(other.timed);
        self.segments.extend(other.segments);
        self.elapsed += other.elapsed;
        self.non200 += other.non200;
    }

    /// The median over segments of each segment's `q` quantile of latency.
    fn windowed(&self, q: f64) -> f64 {
        let per_window: Vec<f64> = self
            .timed
            .chunks_exact(SEGMENT)
            .map(|window| {
                let mut sorted: Vec<f64> = window.iter().map(|t| t.latency).collect();
                sorted.sort_by(f64::total_cmp);
                report::quantile(&sorted, q)
            })
            .collect();
        report::median(&per_window)
    }

    /// The median over segments of each segment's `q` quantile of round trip.
    fn windowed_round_trip(&self, q: f64) -> f64 {
        let per_window: Vec<f64> = self
            .timed
            .chunks_exact(SEGMENT)
            .map(|window| {
                let mut sorted: Vec<f64> = window.iter().map(|t| t.round_trip).collect();
                sorted.sort_by(f64::total_cmp);
                report::quantile(&sorted, q)
            })
            .collect();
        report::median(&per_window)
    }

    /// Meets the latency limit with no refusal (a 429 included) and no
    /// growing backlog: over the last fifth of the phase the generator's
    /// median lag stays within the limit too.
    fn meets_limit(&self) -> bool {
        let tail: Vec<f64> = self.timed[self.timed.len() * 4 / 5..].iter().map(|t| t.lag).collect();
        self.non200 == 0 && self.windowed(0.99) <= LIMIT_S && report::median(&tail) <= LIMIT_S
    }

    fn achieved_rate(&self) -> f64 {
        self.timed.len() as f64 / self.elapsed
    }

    /// For closed-loop segments: the median over segments of the rate each
    /// sustained.
    fn windowed_rate(&self) -> f64 {
        let rates: Vec<f64> = self
            .timed
            .chunks_exact(SEGMENT)
            .map(|window| SEGMENT as f64 / window.iter().map(|t| t.latency).sum::<f64>())
            .collect();
        report::median(&rates)
    }

    /// For closed-loop segments, scaled to the nominal host: the median over
    /// segments of each one's `q` quantile of round trip, and of the rate
    /// it sustained.
    fn scaled(&self, speed: &Speed, q: f64) -> (f64, f64) {
        let (mut quantiles, mut rates) = (Vec::new(), Vec::new());
        for (window, interval) in self.timed.chunks_exact(SEGMENT).zip(&self.segments) {
            let factor = speed.factor(interval);
            let mut sorted: Vec<f64> = window.iter().map(|t| t.round_trip).collect();
            sorted.sort_by(f64::total_cmp);
            quantiles.push(report::quantile(&sorted, q) * factor);
            rates.push(SEGMENT as f64 / (sorted.iter().sum::<f64>() * factor));
        }
        (report::median(&quantiles), report::median(&rates))
    }
}

/// Sends `stream[range]` at `rate` per second (`None`: each as soon as the
/// previous one is answered), restarting the schedule every `segment`
/// updates, and stores each response body.
fn send(
    sampler: &Sampler,
    client: &mut HttpClient,
    stream: &[(u64, String)],
    range: std::ops::Range<usize>,
    rate: Option<f64>,
    segment: usize,
    bodies: &mut Vec<String>,
) -> Result<Phase, String> {
    let mut timed = Vec::with_capacity(range.len());
    let mut segments = Vec::with_capacity(range.len() / segment);
    let mut non200 = 0;
    let start = Instant::now();
    let (mut segment_start, mut segment_from) = (start, 0.0);
    for (i, (_, body)) in stream[range].iter().enumerate() {
        if i % segment == 0 {
            sampler.mark();
            segment_start = Instant::now();
            segment_from = sampler.now();
        }
        let offset = (i % segment) as f64;
        let due =
            rate.map_or_else(Instant::now, |r| segment_start + Duration::from_secs_f64(offset / r));
        wait_until(due);
        let sent = Instant::now();
        let (status, response) = client.post("/protect", body).map_err(|e| e.to_string())?;
        let done = Instant::now();
        if status != 200 {
            non200 += 1;
        }
        bodies.push(response);
        timed.push(Timed {
            latency: (done - due).as_secs_f64(),
            lag: (sent - due).as_secs_f64(),
            round_trip: (done - sent).as_secs_f64(),
        });
        if (i + 1) % segment == 0 {
            segments.push(Interval { from: segment_from, to: sampler.now() });
        }
    }
    sampler.mark();
    Ok(Phase { timed, segments, elapsed: start.elapsed().as_secs_f64(), non200 })
}

/// The measured pass over the whole stream.
struct Pass {
    light: Phase,
    heavy: Phase,
    /// Every closed-loop segment: one per round, then the rest of the stream.
    closed: Phase,
    /// Offered rate and outcome of each ladder rung, in order.
    rungs: Vec<(f64, Phase)>,
    bodies: Vec<String>,
}

impl Pass {
    fn phases(&self) -> impl Iterator<Item = &Phase> {
        [&self.light, &self.heavy, &self.closed]
            .into_iter()
            .chain(self.rungs.iter().map(|(_, p)| p))
    }

    fn non200(&self) -> usize {
        self.phases().map(|p| p.non200).sum()
    }

    /// The achieved rate of the fastest ladder rung that met the limit (the
    /// heavy segments' when none did).
    fn ladder_capacity(&self) -> f64 {
        self.rungs
            .iter()
            .filter(|(_, phase)| phase.meets_limit())
            .map(|(_, phase)| phase.achieved_rate())
            .fold(self.heavy.achieved_rate(), f64::max)
    }
}

fn pass(
    sampler: &Sampler,
    args: &Args,
    stream: &[(u64, String)],
    server: &GeoPrivServer,
) -> Result<Pass, String> {
    let mut client = HttpClient::connect(server.local_addr()).map_err(|e| e.to_string())?;
    let mut bodies = Vec::with_capacity(stream.len());
    let mut send_next = |at: &mut usize, updates: usize, rate: Option<f64>, segment: usize| {
        let end = (*at + updates).min(stream.len());
        let phase = send(sampler, &mut client, stream, *at..end, rate, segment, &mut bodies);
        *at = end;
        phase
    };
    let (mut light, mut heavy, mut closed) = (Phase::default(), Phase::default(), Phase::default());
    let mut at = 0;
    let round = SEGMENT * (HEAVY_PER_ROUND + 2);
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < ROUNDS_SHARE * args.seconds
        && at + round <= stream.len()
    {
        light.extend(send_next(&mut at, SEGMENT, Some(LIGHT_RATE), SEGMENT)?);
        heavy.extend(send_next(&mut at, SEGMENT * HEAVY_PER_ROUND, Some(HEAVY_RATE), SEGMENT)?);
        closed.extend(send_next(&mut at, SEGMENT, None, SEGMENT)?);
    }

    // Climb by 25 % from the heavy rate until a rung misses the limit, then
    // bisect four times between the last rung that met it and the first
    // that did not.
    let mut rungs: Vec<(f64, Phase)> = Vec::new();
    let (mut next, mut low, mut high) = (Some(HEAVY_RATE * 1.25), HEAVY_RATE, None::<f64>);
    let mut bisections = 0;
    while let Some(rate) = next {
        if at + RUNG > stream.len() {
            break;
        }
        let phase = send_next(&mut at, RUNG, Some(rate), RUNG)?;
        if phase.meets_limit() {
            low = rate;
        } else {
            high = Some(rate);
        }
        rungs.push((rate, phase));
        next = match high {
            None => Some(rate * 1.25),
            Some(_) if bisections == 4 => None,
            Some(high) => {
                bisections += 1;
                Some((low + high) / 2.0)
            }
        };
    }
    let rest = stream.len() - at;
    closed.extend(send_next(&mut at, rest, None, SEGMENT)?);
    Ok(Pass { light, heavy, closed, rungs, bodies })
}

/// Replays the stream offline on an identically loaded registry, returning
/// the expected bodies. With spans on, records parse, registry (open or
/// push) and render spans per update.
fn replay(
    recommendation: &PerUserRecommendation,
    stream: &[(u64, String)],
    t: &mut Tracer,
) -> Result<Vec<String>, String> {
    let registry = registry(recommendation)?;
    let mut seen = HashSet::with_capacity(16_384);
    let mut bodies = Vec::with_capacity(stream.len());
    for (user, body) in stream {
        let (request, record) = t.leaf("serve.protocol.parse", || {
            let request = ProtectRequest::from_json(body)?;
            request.record().map(|record| (request, record))
        })?;
        let span = if seen.insert(*user) { "serve.registry.open" } else { "serve.registry.push" };
        let (protected, released) =
            t.leaf(span, || registry.protect(request.user, record)).map_err(|e| e.to_string())?;
        bodies.push(t.leaf("serve.protocol.render", || {
            protect_response_json(request.user, &protected, released)
        }));
    }
    Ok(bodies)
}

fn digest(bodies: &[String]) -> u64 {
    let mut digest = Fnv::new();
    bodies.iter().for_each(|body| digest.text(body));
    digest.finish()
}

/// Checks every `SAMPLE_EVERY`-th user's released stream against the
/// offline `protect_dataset` of her records at her assigned point, seeded
/// with `derive_user_seed`. Returns the number of users checked and the
/// mismatching ones.
fn check_sampled_users(inputs: &Inputs, bodies: &[String]) -> Result<(usize, Vec<u64>), String> {
    let registry = registry(&inputs.recommendation)?;
    let factory = GeoIndistinguishabilityFactory::new();
    let users = inputs.fleet.users();
    let (mut checked, mut failed) = (0, Vec::new());
    for index in (0..users.len()).step_by(SAMPLE_EVERY) {
        let user = users[index];
        let slice = inputs.fleet.user_slice(index..index + 1).map_err(|e| e.to_string())?;
        let lppm = factory
            .instantiate_at(&registry.assignment_for(user.value()).point)
            .map_err(|e| e.to_string())?;
        let mut rng = StdRng::seed_from_u64(derive_user_seed(SERVE_SEED, user));
        let expected = lppm.protect_dataset(&slice, &mut rng).map_err(|e| e.to_string())?;
        let released: Vec<(f64, f64, f64)> = inputs
            .stream
            .iter()
            .zip(bodies)
            .filter(|((u, _), _)| *u == user.value())
            .filter_map(|(_, body)| {
                let value = JsonValue::parse(body).ok()?;
                let field = |key: &str| value.get(key).and_then(JsonValue::as_f64);
                Some((field("t")?, field("lat")?, field("lon")?))
            })
            .collect();
        let offline: Vec<(f64, f64, f64)> = expected
            .iter()
            .flat_map(|trace| {
                let columns =
                    trace.timestamps().iter().zip(trace.latitudes()).zip(trace.longitudes());
                columns.map(|((t, lat), lon)| (*t, *lat, *lon)).collect::<Vec<_>>()
            })
            .collect();
        let bits = |v: &[(f64, f64, f64)]| -> Vec<[u64; 3]> {
            v.iter().map(|(t, a, b)| [t.to_bits(), a.to_bits(), b.to_bits()]).collect()
        };
        checked += 1;
        if bits(&released) != bits(&offline) {
            failed.push(user.value());
        }
    }
    Ok((checked, failed))
}

/// Runs the pass, then stops the server whatever the outcome.
fn serve_once(
    sampler: &Sampler,
    args: &Args,
    inputs: &Inputs,
    server: GeoPrivServer,
) -> Result<(Pass, usize), String> {
    let measured = pass(sampler, args, &inputs.stream, &server);
    let sessions = server.registry().active_sessions();
    server.shutdown();
    Ok((measured?, sessions))
}

/// Sends the whole stream closed-loop over one connection to a fresh server
/// loaded like the first, then stops it whatever the outcome.
fn closed_pass(sampler: &Sampler, inputs: &Inputs) -> Result<(Phase, Vec<String>), String> {
    let server = GeoPrivServer::start(registry(&inputs.recommendation)?, &ServeConfig::default())
        .map_err(|e| e.to_string())?;
    let measured = (|| {
        let mut client = HttpClient::connect(server.local_addr()).map_err(|e| e.to_string())?;
        let mut bodies = Vec::with_capacity(inputs.stream.len());
        let all = 0..inputs.stream.len();
        let phase = send(sampler, &mut client, &inputs.stream, all, None, SEGMENT, &mut bodies)?;
        Ok((phase, bodies))
    })();
    server.shutdown();
    measured
}

/// Counts the responses that differ from the expected ones.
fn mismatches(bodies: &[String], expected: &[String]) -> usize {
    bodies.iter().zip(expected).filter(|(a, b)| a != b).count()
        + expected.len().abs_diff(bodies.len())
}

pub fn run(args: &Args, tracer: &mut Tracer, out: &mut Outcome) -> Result<(), String> {
    if args.trace {
        return traced(args, tracer, out);
    }
    let started = Instant::now();
    let sampler = Sampler::start();
    // Each set-up starts its own server; all but the last are stopped.
    let ((inputs, server), setup) = repeat_setup(
        &sampler,
        || set_up(args, &mut Tracer::new(false)),
        |(_, server)| server.shutdown(),
    )?;
    out.line(format!(
        "input: {} users ({} on the dataset fallback), {} updates in global time order",
        inputs.fleet.user_count(),
        inputs.recommendation.fallback_count(),
        inputs.stream.len()
    ));
    let (pass, sessions) = serve_once(&sampler, args, &inputs, server)?;

    // Every response must equal the offline replay of the same stream.
    let expected = replay(&inputs.recommendation, &inputs.stream, &mut Tracer::new(false))?;
    let mismatched = mismatches(&pass.bodies, &expected);
    let (sampled, wrong_users) = check_sampled_users(&inputs, &pass.bodies)?;
    out.attempted += inputs.stream.len() as u64;
    out.failed += (mismatched + wrong_users.len()) as u64;
    if mismatched > 0 || !wrong_users.is_empty() {
        out.line(format!(
            "FAILED {mismatched} responses differ from the offline replay; released streams of \
             users {wrong_users:?} differ from protect_dataset"
        ));
    }
    out.line(format!(
        "response digest {:016x} ({} responses, {} non-200); {sampled} sampled users' streams \
         checked; {sessions} sessions opened",
        digest(&pass.bodies),
        pass.bodies.len(),
        pass.non200()
    ));

    // Closed-loop passes for the rest of the run, each on a fresh server.
    let mut closed = Phase::default();
    let mut passes = 0;
    while passes < CLOSED_PASSES || started.elapsed().as_secs_f64() < args.seconds {
        let (phase, bodies) = closed_pass(&sampler, &inputs)?;
        let wrong = mismatches(&bodies, &expected) + phase.non200;
        out.attempted += inputs.stream.len() as u64;
        out.failed += wrong as u64;
        if wrong > 0 {
            out.line(format!("FAILED closed-loop pass {passes}: {wrong} responses differ"));
        }
        closed.extend(phase);
        passes += 1;
    }
    let speed = sampler.finish()?;

    out.speed(&speed);
    let setup_s = out.scaled_timing("setup_s", &speed, &setup);
    for (name, rate, phase) in
        [("light", LIGHT_RATE, &pass.light), ("heavy", HEAVY_RATE, &pass.heavy)]
    {
        out.line(format!(
            "{name} segments: {rate} updates/s offered, {} achieved; medians over \
             {SEGMENT}-update segments: p50 {} us, p90 {} us, p99 {} us",
            report::fmt(phase.achieved_rate()),
            report::fmt(phase.windowed(0.5) * 1e6),
            report::fmt(phase.windowed(0.9) * 1e6),
            report::fmt(phase.windowed(0.99) * 1e6),
        ));
        let latencies: Vec<f64> = phase.timed.iter().map(|t| t.latency * 1e6).collect();
        out.timing(&format!("serve_{name}_latency_us (from due time)"), "us", &latencies);
        let lags: Vec<f64> = phase.timed.iter().map(|t| t.lag * 1e6).collect();
        out.timing(&format!("serve_{name}_generator_lag_us"), "us", &lags);
    }
    for (rate, phase) in &pass.rungs {
        out.line(format!(
            "ladder rung {} updates/s: achieved {}, p99 {} us (segment median), final lag {} us, {}",
            report::fmt(*rate),
            report::fmt(phase.achieved_rate()),
            report::fmt(phase.windowed(0.99) * 1e6),
            report::fmt(phase.timed.last().map_or(0.0, |t| t.lag) * 1e6),
            if phase.meets_limit() { "meets the 1 ms p99 limit" } else { "misses the limit" }
        ));
    }
    out.line(format!(
        "serve_p50_us: {}, serve_p90_us: {}, serve_p99_us: {} (heavy segments, medians over \
         segments)",
        report::fmt(pass.heavy.windowed(0.5) * 1e6),
        report::fmt(pass.heavy.windowed(0.9) * 1e6),
        report::fmt(pass.heavy.windowed(0.99) * 1e6)
    ));
    out.line(format!(
        "serve_capacity_per_s: {} by the ladder; {} sustained closed-loop in the first pass",
        report::fmt(pass.ladder_capacity()),
        report::fmt(pass.closed.windowed_rate()),
    ));
    let (p50, rate) = closed.scaled(&speed, 0.5);
    let (p90, _) = closed.scaled(&speed, 0.9);
    out.line(format!(
        "closed-loop passes: {passes}; medians over {} segments, wall: round trip p50 {} us, \
         p90 {} us, {} updates/s; scaled: p50 {} us, p90 {} us, {} updates/s",
        closed.segments.len(),
        report::fmt(closed.windowed_round_trip(0.5) * 1e6),
        report::fmt(closed.windowed_round_trip(0.9) * 1e6),
        report::fmt(closed.windowed_rate()),
        report::fmt(p50 * 1e6),
        report::fmt(p90 * 1e6),
        report::fmt(rate)
    ));
    out.metric("setup_s", setup_s, "s");
    out.metric("primary_ms", p50 * 1e3, "ms");
    out.metric("secondary_ms", p90 * 1e3, "ms");
    out.metric("throughput_per_s", rate, "1/s");
    out.metric("peak_rss_mb", report::peak_rss_mb(), "MB");
    Ok(())
}

/// The deployed middleware stack around a handler that does nothing.
fn middleware_only() -> Box<dyn geopriv_serve::Handler> {
    let config = ServeConfig::default();
    let mut stack = MiddlewareStack::new()
        .layer(PanicCatch)
        .layer(MetricsLayer::new(Arc::new(RequestMetrics::new())));
    if let Some((burst, per_second)) = config.rate_limit {
        stack = stack.layer(RateLimit::new(burst, per_second));
    }
    stack
        .layer(Timeout::new(config.timeout).exempt("/protect"))
        .service(Box::new(|_: &HttpRequest| HttpResponse::json(200, String::new())))
}

/// One pass, then its replay through the serving layers' public calls.
fn traced(args: &Args, tracer: &mut Tracer, out: &mut Outcome) -> Result<(), String> {
    let (inputs, server) = set_up(args, tracer)?;
    let (pass, sessions) = serve_once(&Sampler::start(), args, &inputs, server)?;
    let updates = inputs.stream.len();

    // Replay without spans first: the tracing overhead baseline.
    let t0 = Instant::now();
    let untraced = replay(&inputs.recommendation, &inputs.stream, &mut Tracer::new(false))?;
    let untraced_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let traced = tracer.span("replay", |t| replay(&inputs.recommendation, &inputs.stream, t))?;
    let traced_s = t0.elapsed().as_secs_f64();
    if untraced != pass.bodies || traced != pass.bodies {
        return Err("the offline replay differs from the served responses".to_string());
    }

    let stack = middleware_only();
    tracer.span("middleware", |t| -> Result<(), String> {
        for (_, body) in &inputs.stream {
            let request = HttpRequest {
                method: tiny_http::Method::Post,
                path: "/protect".to_string(),
                body: body.clone(),
            };
            let response = t.leaf("serve.middleware", || stack.handle(&request));
            if response.status != 200 {
                return Err(format!("the middleware stack answered {}", response.status));
            }
        }
        Ok(())
    })?;
    out.attempted += updates as u64;

    let totals = tracer.totals();
    let get = |name: &str| totals.get(name).copied().unwrap_or_default();
    let per_call = |name: &str| {
        let span = get(name);
        span.self_s * 1e9 / span.count.max(1) as f64
    };
    let (open, push) = (get("serve.registry.open"), get("serve.registry.push"));
    let round_trip_ns = pass.phases().flat_map(|p| &p.timed).map(|t| t.round_trip).sum::<f64>()
        * 1e9
        / updates as f64;
    let middleware_ns = per_call("serve.middleware");
    let protocol_ns = per_call("serve.protocol.parse") + per_call("serve.protocol.render");
    let registry_ns = (open.self_s + push.self_s) * 1e9 / updates as f64;
    let transport_ns = round_trip_ns - middleware_ns - protocol_ns - registry_ns;
    let mut lags: Vec<f64> = pass.heavy.timed.iter().map(|t| t.lag).collect();
    lags.sort_by(f64::total_cmp);

    let mut layers = Layers::default();
    layers.set("mobility.generate_s", get("mobility.generate").self_s);
    layers.set("serve.middleware_ns", middleware_ns);
    layers.set("serve.protocol.parse_ns", per_call("serve.protocol.parse"));
    layers.set("serve.protocol.render_ns", per_call("serve.protocol.render"));
    layers.set("serve.registry.open_ns", per_call("serve.registry.open"));
    layers.set("serve.registry.push_ns", per_call("serve.registry.push"));
    layers.set("serve.transport_ns", transport_ns);
    layers.set("serve.middleware.share", middleware_ns / round_trip_ns);
    layers.set("serve.protocol.share", protocol_ns / round_trip_ns);
    layers.set("serve.registry.share", registry_ns / round_trip_ns);
    layers.set("serve.transport.share", transport_ns / round_trip_ns);
    layers.set("serve.generator_lag_us", report::quantile(&lags, 0.99) * 1e6);
    layers.set("serve.sessions_opened", sessions as f64);
    layers.set("serve.non200", pass.non200() as f64);
    layers.set("trace.overhead_ratio", traced_s / untraced_s - 1.0);
    out.line(format!(
        "traced pass: mean round trip {} ns over {updates} updates ({} session opens); replay {} s \
         traced vs {} s untraced",
        report::fmt(round_trip_ns),
        open.count,
        report::fmt(traced_s),
        report::fmt(untraced_s)
    ));
    layers.publish(out);
    Ok(())
}
