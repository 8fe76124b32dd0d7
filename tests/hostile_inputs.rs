//! Hostile inputs for the decoders of outside input: `JsonValue::parse`,
//! `ProtectRequest::from_json` (the serving layer's request body),
//! `read_csv` and `read_cabspotting_trace`.
//!
//! Each decoder gets, from a fixed seed, random bytes, every truncation of
//! one valid input, single-byte mutations of that input, and splices of it
//! with itself. Every call must return `Ok` or the decoder's typed error and
//! never panic; a panic is caught and reported with the input that caused
//! it. The string decoders see invalid UTF-8 as the lossy conversion a
//! caller holding bytes would make. The cache decoder's byte flips and
//! truncations live in `geopriv_core::cache`'s tests, and oversized designs
//! in `geopriv_core::experiment`'s.

use geopriv::core::{CoreError, JsonValue};
use geopriv::mobility::io::{read_cabspotting_trace, read_csv};
use geopriv::mobility::UserId;
use geopriv::serve::ProtectRequest;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A document with every JSON value kind, escapes, exponents, a multi-byte
/// character and nesting.
const JSON: &str = r#"{"users": [{"id": 17, "epsilon": 1.4517983278656702e-2, "feasible": true},
 {"id": 18, "epsilon": null, "feasible": false, "reason": "no \"POI\"\n\u00e9t\u00E9 — mixed"}],
 "axes": {"epsilon": [1e-4, 1.0], "cell_size": [-0.5, 2000]}, "empty": [{}, []]}"#;

/// One `/protect` request body, as the serving client renders it.
const REQUEST: &str = r#"{"user": 17, "t": 1213084687.5, "lat": 37.7749, "lon": -122.4194}"#;

/// The combined CSV layout: a header, two users, records out of order.
const CSV: &str = "user,timestamp,latitude,longitude\n\
                   1,0,37.7749,-122.4194\n\
                   1,60,37.7751,-122.4190\n\
                   2,120.5,37.7600,-122.4300\n\
                   2,60,37.7610,-122.4310\n\
                   \n\
                   1,120,37.7760,-122.4180\n";

/// One cabspotting driver: `latitude longitude occupancy unix-timestamp`,
/// newest first.
const CABSPOTTING: &str = "37.75134 -122.39488 0 1213084687\n\
                           37.75136 -122.39527 0 1213084659\n\
                           37.75199 -122.3946 1 1213084540\n\
                           \n\
                           37.7508 -122.39381 1 1213084489\n";

/// Bytes a single-byte mutation writes: structure, number and literal
/// characters of the four formats, whitespace, and bytes that are not
/// valid UTF-8 on their own.
const MUTANTS: &[u8] = b"\x00 \t\n\r\"\\,.:;-+eE0195{}[]ntfu\x7f\xc3\xe2\xff";

/// Random inputs per decoder, and self-splices per decoder.
const RANDOM_INPUTS: usize = 5_000;
const SPLICES: usize = 5_000;

/// Every hostile input derived from `valid`: random bytes (uniform, and
/// drawn from `valid`'s own bytes to get past the first token), every
/// truncation, every single-byte replacement by a [`MUTANTS`] byte, every
/// single-byte deletion and random insertion, and random self-splices
/// `valid[..a] ++ valid[b..]`.
fn hostile_inputs(valid: &str, seed: u64) -> Vec<Vec<u8>> {
    let valid = valid.as_bytes();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut inputs = Vec::new();
    for i in 0..RANDOM_INPUTS {
        let len = rng.gen_range(0..=128usize);
        let bytes: Vec<u8> = (0..len)
            .map(|_| {
                if i % 2 == 0 {
                    rng.gen_range(0..=u8::MAX)
                } else {
                    valid[rng.gen_range(0..valid.len())]
                }
            })
            .collect();
        inputs.push(bytes);
    }
    for len in 0..=valid.len() {
        inputs.push(valid[..len].to_vec());
    }
    for at in 0..valid.len() {
        for &byte in MUTANTS {
            let mut mutated = valid.to_vec();
            mutated[at] = byte;
            inputs.push(mutated);
        }
        let mut deleted = valid.to_vec();
        deleted.remove(at);
        inputs.push(deleted);
        let mut inserted = valid.to_vec();
        inserted.insert(at, rng.gen_range(0..=u8::MAX));
        inputs.push(inserted);
    }
    for _ in 0..SPLICES {
        let (a, b) = (rng.gen_range(0..=valid.len()), rng.gen_range(0..=valid.len()));
        inputs.push([&valid[..a], &valid[b..]].concat());
    }
    inputs
}

/// Runs `decode` on every input and returns the errors, one per rejected
/// input; a panic fails the test with the input that caused it.
fn rejections<T, E>(
    decoder: &str,
    inputs: &[Vec<u8>],
    decode: impl Fn(&[u8]) -> Result<T, E>,
) -> Vec<E> {
    inputs
        .iter()
        .filter_map(|input| match catch_unwind(AssertUnwindSafe(|| decode(input))) {
            Ok(result) => result.err(),
            Err(_) => panic!("{decoder} panicked on {:?}", String::from_utf8_lossy(input)),
        })
        .collect()
}

/// Asserts that the hostile inputs reached both outcomes: some mutations
/// keep the input well-formed, most do not.
fn assert_both_outcomes<E>(decoder: &str, inputs: &[Vec<u8>], rejected: &[E]) {
    assert!(!rejected.is_empty(), "{decoder} rejected no hostile input");
    assert!(rejected.len() < inputs.len(), "{decoder} accepted no hostile input");
}

/// Every strict prefix of a JSON document, up to its closing bracket, is an
/// incomplete document.
fn assert_prefixes_rejected<T, E>(
    decoder: &str,
    valid: &str,
    decode: impl Fn(&str) -> Result<T, E>,
) {
    for len in 0..valid.trim_end().len() {
        if let Some(prefix) = valid.get(..len) {
            assert!(decode(prefix).is_err(), "{decoder} accepted the prefix {prefix:?}");
        }
    }
}

#[test]
fn json_documents_never_panic_the_parser() {
    assert!(JsonValue::parse(JSON).is_ok(), "the seed document parses");
    let inputs = hostile_inputs(JSON, 0x4A53_4F4E);
    let rejected = rejections("JsonValue::parse", &inputs, |bytes| {
        JsonValue::parse(&String::from_utf8_lossy(bytes))
    });
    assert_both_outcomes("JsonValue::parse", &inputs, &rejected);
    for error in &rejected {
        assert!(matches!(error, CoreError::Parse { .. }), "not a parse error: {error}");
    }
    assert_prefixes_rejected("JsonValue::parse", JSON, JsonValue::parse);
}

#[test]
fn protect_requests_never_panic_the_decoder() {
    let request = ProtectRequest::from_json(REQUEST).expect("the seed request parses");
    assert_eq!((request.user, request.lat), (17, 37.7749));
    let inputs = hostile_inputs(REQUEST, 0x5052_4F54);
    let rejected = rejections("ProtectRequest::from_json", &inputs, |bytes| {
        ProtectRequest::from_json(&String::from_utf8_lossy(bytes))
    });
    assert_both_outcomes("ProtectRequest::from_json", &inputs, &rejected);
    assert_prefixes_rejected("ProtectRequest::from_json", REQUEST, ProtectRequest::from_json);
}

#[test]
fn csv_files_never_panic_the_loader() {
    let dataset = read_csv(CSV.as_bytes()).expect("the seed file loads");
    assert_eq!((dataset.user_count(), dataset.record_count()), (2, 5));
    let inputs = hostile_inputs(CSV, 0x4353_5600);
    let rejected = rejections("read_csv", &inputs, |bytes| read_csv(bytes));
    assert_both_outcomes("read_csv", &inputs, &rejected);
}

#[test]
fn cabspotting_traces_never_panic_the_loader() {
    let load = |bytes: &[u8]| read_cabspotting_trace(UserId::new(4), bytes);
    let trace = load(CABSPOTTING.as_bytes()).expect("the seed trace loads");
    assert_eq!(trace.len(), 4);
    let inputs = hostile_inputs(CABSPOTTING, 0x4341_4253);
    let rejected = rejections("read_cabspotting_trace", &inputs, load);
    assert_both_outcomes("read_cabspotting_trace", &inputs, &rejected);
}
