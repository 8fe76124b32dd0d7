//! Loopback integration tests: a real [`GeoPrivServer`] on an ephemeral
//! port, driven through [`HttpClient`] over TCP — the same path CI smokes.
//!
//! The centerpiece is the online/offline equivalence test: the protected
//! coordinates coming back **through the HTTP wire** are bit-identical to
//! the offline columnar protection at the same configuration point and
//! derived seed.

use geopriv_core::json::JsonValue;
use geopriv_core::{
    CoreError, GeoIndistinguishabilityFactory, LppmFactory, MetricId, PerUserRecommendation,
    Recommendation, UserRecommendation, UserVerdict,
};
use geopriv_geo::{GeoPoint, Seconds};
use geopriv_lppm::{ConfigPoint, ConfigSpace, Kernel, Lppm, Pipeline};
use geopriv_mobility::{Dataset, DatasetBuilder, Record, Trace, TraceView, UserId};
use geopriv_serve::{derive_user_seed, AssignmentRegistry, GeoPrivServer, HttpClient, ServeConfig};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

const MASTER_SEED: u64 = 20161212;

fn point(epsilon: f64) -> ConfigPoint {
    ConfigPoint::from_named(vec![("epsilon".to_string(), epsilon)])
}

fn recommendation() -> PerUserRecommendation {
    PerUserRecommendation {
        dataset: Recommendation {
            point: point(0.01),
            feasible: vec![("epsilon".to_string(), (0.003, 0.06))],
            predictions: vec![(MetricId::new("poi-retrieval"), 0.1)],
        },
        users: vec![
            UserRecommendation {
                user: UserId::new(1),
                verdict: UserVerdict::Feasible,
                point: point(0.02),
                predictions: vec![(MetricId::new("poi-retrieval"), 0.08)],
            },
            UserRecommendation {
                user: UserId::new(2),
                verdict: UserVerdict::Unmodeled { reason: "too few records".into() },
                point: point(0.01),
                predictions: vec![],
            },
        ],
    }
}

fn start_server(config: &ServeConfig) -> GeoPrivServer {
    let registry = AssignmentRegistry::load(
        Box::new(GeoIndistinguishabilityFactory::new()),
        &recommendation(),
        MASTER_SEED,
    )
    .unwrap();
    GeoPrivServer::start(registry, config).unwrap()
}

fn protect_body(user: u64, i: u32) -> String {
    format!(
        "{{\"user\": {user}, \"t\": {}, \"lat\": {}, \"lon\": -1.6778}}",
        f64::from(i) * 30.0,
        48.1173 + f64::from(i) * 1e-4
    )
}

#[test]
fn smoke_all_routes_respond_and_metrics_are_well_formed() {
    let server = start_server(&ServeConfig::default());
    let mut client = HttpClient::connect(server.local_addr()).unwrap();

    let (status, body) = client.get("/healthz").unwrap();
    assert_eq!((status, body.as_str()), (200, "ok\n"));

    let (status, body) = client.post("/protect", &protect_body(1, 0)).unwrap();
    assert_eq!(status, 200, "{body}");
    let value = JsonValue::parse(&body).unwrap();
    assert_eq!(value.get("user").unwrap().as_u64(), Some(1));
    assert_eq!(value.get("released").unwrap().as_u64(), Some(1));

    let (status, body) = client.get("/assignment/1").unwrap();
    assert_eq!(status, 200);
    let value = JsonValue::parse(&body).unwrap();
    assert_eq!(value.get("source").unwrap().as_str(), Some("own"));

    // Unknown users get the documented fallback, not a 404 and not a panic.
    let (status, body) = client.get("/assignment/424242").unwrap();
    assert_eq!(status, 200);
    let value = JsonValue::parse(&body).unwrap();
    assert_eq!(value.get("source").unwrap().as_str(), Some("dataset-fallback"));
    assert_eq!(value.get("point").unwrap().get("epsilon").unwrap().as_f64(), Some(0.01));

    // Error paths: malformed JSON, bad coordinates, unknown routes.
    let (status, _) = client.post("/protect", "not json").unwrap();
    assert_eq!(status, 400);
    let (status, _) =
        client.post("/protect", "{\"user\": 1, \"t\": 0, \"lat\": 95, \"lon\": 0}").unwrap();
    assert_eq!(status, 400);
    let (status, _) = client.get("/nope").unwrap();
    assert_eq!(status, 404);
    let (status, _) = client.get("/assignment/not-a-number").unwrap();
    assert_eq!(status, 400);

    // The metrics exposition is well-formed and counted every request above.
    let (status, text) = client.get("/metrics").unwrap();
    assert_eq!(status, 200);
    assert!(text.contains("geopriv_requests_total{route=\"/protect\",status=\"200\"} 1"));
    assert!(text.contains("geopriv_requests_total{route=\"/protect\",status=\"400\"} 2"));
    assert!(text.contains("geopriv_requests_total{route=\"/healthz\",status=\"200\"} 1"));
    assert!(text.contains("geopriv_requests_total{route=\"/assignment\",status=\"200\"} 2"));
    assert!(text.contains("geopriv_requests_total{route=\"other\",status=\"404\"} 1"));
    assert!(text.contains("geopriv_request_seconds_bucket{le=\"+Inf\"}"));
    assert!(text.contains("geopriv_request_seconds_count"));
    // Histogram totals agree with the counter totals (the /metrics request
    // itself is recorded after rendering, so it is not yet included).
    let count_line = text.lines().find(|l| l.starts_with("geopriv_request_seconds_count")).unwrap();
    let histogram_total: u64 = count_line.rsplit(' ').next().unwrap().parse().unwrap();
    let counter_total: u64 = text
        .lines()
        .filter(|l| l.starts_with("geopriv_requests_total{"))
        .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
        .sum();
    assert_eq!(histogram_total, counter_total);

    server.shutdown();
}

#[test]
fn online_stream_is_bit_identical_to_offline_protection_through_the_wire() {
    let server = start_server(&ServeConfig::default());
    let mut client = HttpClient::connect(server.local_addr()).unwrap();

    // Drive user 1's stream through the HTTP path and collect the released
    // coordinates exactly as a client would see them.
    const RECORDS: u32 = 25;
    let mut online = Vec::new();
    for i in 0..RECORDS {
        let (status, body) = client.post("/protect", &protect_body(1, i)).unwrap();
        assert_eq!(status, 200, "{body}");
        let value = JsonValue::parse(&body).unwrap();
        assert_eq!(value.get("released").unwrap().as_u64(), Some(u64::from(i) + 1));
        online.push(Record::new(
            Seconds::new(value.get("t").unwrap().as_f64().unwrap()),
            GeoPoint::new(
                value.get("lat").unwrap().as_f64().unwrap(),
                value.get("lon").unwrap().as_f64().unwrap(),
            )
            .unwrap(),
        ));
    }
    server.shutdown();

    // Offline reference: the same trace, protected columnarly at user 1's
    // recommended point under the derived session seed.
    let records: Vec<Record> = (0..RECORDS)
        .map(|i| {
            Record::new(
                Seconds::new(f64::from(i) * 30.0),
                GeoPoint::new(48.1173 + f64::from(i) * 1e-4, -1.6778).unwrap(),
            )
        })
        .collect();
    let timestamps: Vec<f64> = records.iter().map(|r| r.timestamp().as_f64()).collect();
    let latitudes: Vec<f64> = records.iter().map(|r| r.location().latitude()).collect();
    let longitudes: Vec<f64> = records.iter().map(|r| r.location().longitude()).collect();
    let view = TraceView::from_columns(UserId::new(1), &timestamps, &latitudes, &longitudes);
    let lppm = GeoIndistinguishabilityFactory::new().instantiate_at(&point(0.02)).unwrap();
    let mut rng = StdRng::seed_from_u64(derive_user_seed(MASTER_SEED, UserId::new(1)));
    let actual = Dataset::new(vec![view.to_trace()]).unwrap();
    let offline = lppm.protect_dataset(&actual, &mut rng).unwrap();
    let trace = offline.trace_at(0);

    // Bit-identical through JSON: shortest round-trip floats re-parse to
    // the exact bits the offline pipeline produced.
    for (i, record) in online.iter().enumerate() {
        let reference = trace.record(i);
        assert_eq!(
            record.location().latitude().to_bits(),
            reference.location().latitude().to_bits(),
            "latitude of record {i} diverged online vs offline"
        );
        assert_eq!(
            record.location().longitude().to_bits(),
            reference.location().longitude().to_bits(),
            "longitude of record {i} diverged online vs offline"
        );
    }
}

/// GEO-I behind a downsampling by 2, on GEO-I's ε axis: its sessions
/// withhold every second update.
/// Releases every other record of a trace, unchanged. No shipped mechanism
/// withholds records, but the server still answers a withheld update with
/// 204.
struct EveryOther;

impl Lppm for EveryOther {
    fn name(&self) -> &str {
        "every-other"
    }

    fn kernel(&self) -> Box<dyn Kernel> {
        struct Keep(usize);
        impl Kernel for Keep {
            fn protect(
                &mut self,
                records: TraceView<'_>,
                _: &mut dyn RngCore,
                out: &mut DatasetBuilder,
            ) {
                for record in records.iter() {
                    if self.0 % 2 == 0 {
                        out.push_record(record.timestamp(), record.location());
                    }
                    self.0 += 1;
                }
            }
        }
        Box::new(Keep(0))
    }

    fn draws_randomness(&self) -> bool {
        false
    }
}

struct ThinnedGeoIndistinguishability;

impl LppmFactory for ThinnedGeoIndistinguishability {
    fn name(&self) -> &str {
        "thinned-geo-indistinguishability"
    }

    fn space(&self) -> ConfigSpace {
        GeoIndistinguishabilityFactory::new().space()
    }

    fn instantiate_at(&self, point: &ConfigPoint) -> Result<Box<dyn Lppm>, CoreError> {
        let geoi = GeoIndistinguishabilityFactory::new().instantiate_at(point)?;
        Ok(Box::new(Pipeline::new().then(EveryOther).then_boxed(geoi)))
    }
}

#[test]
fn withheld_updates_answer_204_and_released_records_match_offline(
) -> Result<(), Box<dyn std::error::Error>> {
    let registry = AssignmentRegistry::load(
        Box::new(ThinnedGeoIndistinguishability),
        &recommendation(),
        MASTER_SEED,
    )?;
    let server = GeoPrivServer::start(registry, &ServeConfig::default())?;
    let mut client = HttpClient::connect(server.local_addr())?;

    const RECORDS: u32 = 21;
    let mut online = Vec::new();
    for i in 0..RECORDS {
        let (status, body) = client.post("/protect", &protect_body(1, i))?;
        if i % 2 == 1 {
            assert_eq!((status, body.as_str()), (204, ""), "update {i}");
            continue;
        }
        assert_eq!(status, 200, "{body}");
        let value = JsonValue::parse(&body)?;
        let released = value.get("released").and_then(JsonValue::as_u64);
        assert_eq!(released, Some(u64::from(i / 2 + 1)), "released counts released records only");
        for key in ["t", "lat", "lon"] {
            online.push(value.get(key).and_then(JsonValue::as_f64).ok_or("missing member")?);
        }
    }
    let (_, metrics) = client.get("/metrics")?;
    assert!(metrics.contains("geopriv_requests_total{route=\"/protect\",status=\"204\"} 10"));
    server.shutdown();

    // Offline reference: the whole trace protected at user 1's point under
    // the derived session seed.
    let records = (0..RECORDS)
        .map(|i| {
            let location = GeoPoint::new(48.1173 + f64::from(i) * 1e-4, -1.6778)?;
            Ok(Record::new(Seconds::new(f64::from(i) * 30.0), location))
        })
        .collect::<Result<Vec<Record>, geopriv_geo::GeoError>>()?;
    let lppm = ThinnedGeoIndistinguishability.instantiate_at(&point(0.02))?;
    let mut rng = StdRng::seed_from_u64(derive_user_seed(MASTER_SEED, UserId::new(1)));
    let actual = Dataset::new(vec![Trace::new(UserId::new(1), records)?])?;
    let offline = lppm.protect_dataset(&actual, &mut rng)?;
    let offline: Vec<f64> = offline
        .trace_at(0)
        .iter()
        .flat_map(|r| [r.timestamp().as_f64(), r.location().latitude(), r.location().longitude()])
        .collect();
    let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
    assert_eq!(bits(&online), bits(&offline));
    Ok(())
}

#[test]
fn rate_limited_users_get_429_and_metrics_count_them() {
    let config = ServeConfig {
        rate_limit: Some((3, 0.0)), // 3-request burst, no refill.
        ..ServeConfig::default()
    };
    let server = start_server(&config);
    let mut client = HttpClient::connect(server.local_addr()).unwrap();

    for i in 0..3 {
        let (status, _) = client.post("/protect", &protect_body(5, i)).unwrap();
        assert_eq!(status, 200);
    }
    let (status, body) = client.post("/protect", &protect_body(5, 3)).unwrap();
    assert_eq!(status, 429);
    assert!(body.contains("rate limit"));
    // Another user is unaffected, and unkeyed routes never limit.
    let (status, _) = client.post("/protect", &protect_body(6, 0)).unwrap();
    assert_eq!(status, 200);
    let (status, text) = client.get("/metrics").unwrap();
    assert_eq!(status, 200);
    assert!(text.contains("geopriv_requests_total{route=\"/protect\",status=\"429\"} 1"));
    server.shutdown();
}

#[test]
fn metrics_exposition_is_byte_deterministic() {
    // The same traffic against two fresh server instances must yield the
    // same counter section byte for byte — no hash-seed or insertion-order
    // dependence. (Histogram bucket lines depend on measured latency, so
    // only the counter lines are compared across instances.)
    let run = || {
        let server = start_server(&ServeConfig::default());
        let mut client = HttpClient::connect(server.local_addr()).unwrap();
        // Routes hit in an order that differs from their sorted render order.
        for i in 0..3 {
            client.post("/protect", &protect_body(1, i)).unwrap();
        }
        client.get("/healthz").unwrap();
        client.get("/assignment/9").unwrap();
        client.post("/protect", "not json").unwrap();
        let (status, text) = client.get("/metrics").unwrap();
        assert_eq!(status, 200);

        // Rendering mutates nothing: a second render of the same store is
        // byte-identical to the first.
        let first = server.metrics().render();
        let second = server.metrics().render();
        assert_eq!(first.as_bytes(), second.as_bytes());

        server.shutdown();
        text.lines()
            .filter(|l| l.contains("geopriv_requests_total"))
            .map(String::from)
            .collect::<Vec<String>>()
    };
    let counters = run();
    assert!(!counters.is_empty());
    assert_eq!(counters, run(), "counter section diverged across identical instances");
}

#[test]
fn unknown_users_protect_at_the_fallback_point_deterministically() {
    // Two servers, same master seed: an unknown user's stream is identical
    // across instances (the fallback assignment is deterministic too).
    let server_a = start_server(&ServeConfig::default());
    let server_b = start_server(&ServeConfig::default());
    let mut client_a = HttpClient::connect(server_a.local_addr()).unwrap();
    let mut client_b = HttpClient::connect(server_b.local_addr()).unwrap();
    for i in 0..5 {
        let (status_a, body_a) = client_a.post("/protect", &protect_body(909, i)).unwrap();
        let (status_b, body_b) = client_b.post("/protect", &protect_body(909, i)).unwrap();
        assert_eq!((status_a, status_b), (200, 200));
        assert_eq!(body_a, body_b, "record {i} diverged across instances");
    }
    server_a.shutdown();
    server_b.shutdown();
}

#[test]
fn timeouts_surface_as_504_without_killing_the_server() {
    let config = ServeConfig { timeout: Duration::from_nanos(1), ..ServeConfig::default() };
    let server = start_server(&config);
    let mut client = HttpClient::connect(server.local_addr()).unwrap();
    // /protect is exempt from 504 replacement: by the time the deadline
    // check runs the session has already advanced, and a 504 would invite
    // a retry that pushes the record twice — desynchronizing the online
    // stream from the user's real record sequence. The applied update's
    // real response comes back even past the deadline.
    let (status, body) = client.post("/protect", &protect_body(1, 0)).unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"released\": 1"));
    // Side-effect-free routes are replaced, and the server stays alive and
    // serving on the same connection rather than dropping it.
    let (status, body) = client.get("/healthz").unwrap();
    assert_eq!(status, 504, "{body}");
    assert!(body.contains("deadline"));
    // The session did not double-advance behind the exemption.
    let (status, body) = client.post("/protect", &protect_body(1, 1)).unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"released\": 2"));
    server.shutdown();
}

#[test]
fn hostile_requests_cannot_kill_or_bloat_the_server() {
    let server = start_server(&ServeConfig::default());
    let addr = server.local_addr();

    // The review's original crash repro: ~100KB of '[' as a /protect body
    // used to overflow the worker stack and SIGABRT the whole process
    // (stack overflow is not unwinding — PanicCatch cannot intercept it).
    // The parser's depth limit must turn it into a plain 400.
    let mut client = HttpClient::connect(addr).unwrap();
    let (status, body) = client.post("/protect", &"[".repeat(100_000)).unwrap();
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("depth"), "{body}");

    // A user id above 2^53 - 1 would silently collide with a neighbor
    // through f64; it is rejected, never aliased.
    let (status, body) = client
        .post("/protect", "{\"user\": 18446744073709551615, \"t\": 0, \"lat\": 0, \"lon\": 0}")
        .unwrap();
    assert_eq!(status, 400, "{body}");

    // And the server is still alive for well-formed traffic.
    let (status, _) = client.post("/protect", &protect_body(1, 0)).unwrap();
    assert_eq!(status, 200);
    assert_eq!(server.metrics().count("/protect", 400), 2);
    server.shutdown();
}

#[test]
fn registry_loads_from_the_json_wire_format_end_to_end() {
    let json = geopriv_core::report::per_user_recommendation_to_json(&recommendation());
    let registry = AssignmentRegistry::from_json(
        Box::new(GeoIndistinguishabilityFactory::new()),
        &json,
        MASTER_SEED,
    )
    .unwrap();
    assert_eq!(registry.assigned_users(), 2);
    let server = GeoPrivServer::start(registry, &ServeConfig::default()).unwrap();
    let mut client = HttpClient::connect(server.local_addr()).unwrap();
    let (status, body) = client.get("/assignment/2").unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("dataset-fallback"));
    assert!(body.contains("too few records"));
    server.shutdown();

    // A truncated document is a load error, not a panic.
    let truncated = &json[..json.len() / 2];
    assert!(AssignmentRegistry::from_json(
        Box::new(GeoIndistinguishabilityFactory::new()),
        truncated,
        MASTER_SEED,
    )
    .is_err());
}

#[test]
fn an_idle_keep_alive_peer_does_not_starve_a_new_connection() {
    let server = start_server(&ServeConfig::default());
    let addr = server.local_addr();

    // Client A is answered once, then stays silent with its connection open.
    let mut idle = TcpStream::connect(addr).unwrap();
    idle.write_all(b"GET /healthz HTTP/1.1\r\nHost: a\r\n\r\n").unwrap();
    let mut answer = Vec::new();
    let mut buf = [0u8; 512];
    while !answer.ends_with(b"\r\n\r\nok\n") {
        let read = idle.read(&mut buf).unwrap();
        assert!(read > 0, "A's connection closed before its answer");
        answer.extend_from_slice(&buf[..read]);
    }
    assert!(answer.starts_with(b"HTTP/1.1 200 OK\r\n"));

    // Client B must not wait on A: the shim used to go back to A's idle
    // connection after every read timeout and never reach accept.
    let (sender, receiver) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let answer = HttpClient::connect(addr).and_then(|mut b| b.get("/healthz"));
        let _ = sender.send(answer);
    });
    let answer = receiver.recv_timeout(Duration::from_secs(1)).expect("B starved behind idle A");
    assert_eq!(answer.unwrap(), (200, "ok\n".to_string()));

    // The server closed A's idle connection to serve B: A reads EOF.
    idle.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    assert_eq!(idle.read(&mut buf).unwrap(), 0, "A's idle connection is still open");
    server.shutdown();
}
