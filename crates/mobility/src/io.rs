//! Reading and writing mobility datasets as CSV.
//!
//! The paper evaluates on the cabspotting San-Francisco taxi traces, which
//! are distributed as per-driver text files with `latitude longitude
//! occupancy unix-timestamp` lines. This module supports:
//!
//! * the **cabspotting layout** (space-separated, one file per driver), and
//! * a simpler **combined CSV layout** `user,timestamp,latitude,longitude`
//!   used by the examples and benches to persist synthetic datasets.

use crate::error::MobilityError;
use crate::record::{Record, UserId};
use crate::trace::Trace;
use crate::Dataset;
use geopriv_geo::{GeoPoint, Seconds};
use std::io::{BufRead, BufReader, Read, Write};

/// Header written/expected by the combined CSV layout.
pub const CSV_HEADER: &str = "user,timestamp,latitude,longitude";

/// Writes a dataset in the combined CSV layout to any writer.
///
/// Records are written per trace, in chronological order, with the header
/// [`CSV_HEADER`] on the first line. A `&mut Vec<u8>` or `&mut File` can be
/// passed directly.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
// audit:allow(R1): public API — how a user saves their own traces
pub fn write_csv<W: Write>(dataset: &Dataset, mut writer: W) -> Result<(), MobilityError> {
    writeln!(writer, "{CSV_HEADER}")?;
    for trace in dataset {
        for record in trace {
            writeln!(
                writer,
                "{},{},{:.6},{:.6}",
                trace.user().value(),
                record.timestamp().as_f64(),
                record.location().latitude(),
                record.location().longitude()
            )?;
        }
    }
    Ok(())
}

/// Reads a dataset in the combined CSV layout from any reader.
///
/// The header line is optional. Empty lines are skipped. Records may appear
/// in any order; they are grouped by user and sorted by timestamp.
///
/// # Errors
///
/// Returns [`MobilityError::Parse`] for malformed lines (including a `NaN`
/// or infinite timestamp) and [`MobilityError::EmptyDataset`] if no record
/// was found.
// audit:allow(R1): public API — how a user loads their own traces
pub fn read_csv<R: Read>(reader: R) -> Result<Dataset, MobilityError> {
    let reader = BufReader::new(reader);
    let mut per_user: std::collections::BTreeMap<u64, Vec<Record>> =
        std::collections::BTreeMap::new();

    for (i, line) in reader.lines().enumerate() {
        let line_no = i + 1;
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed == CSV_HEADER {
            continue;
        }
        let fields: Vec<&str> = trimmed.split(',').map(str::trim).collect();
        if fields.len() != 4 {
            return Err(MobilityError::Parse {
                line: line_no,
                reason: format!("expected 4 comma-separated fields, got {}", fields.len()),
            });
        }
        let user: u64 = fields[0].parse().map_err(|_| MobilityError::Parse {
            line: line_no,
            reason: format!("invalid user id {:?}", fields[0]),
        })?;
        let timestamp = parse_timestamp(fields[1], line_no)?;
        let lat: f64 = fields[2].parse().map_err(|_| MobilityError::Parse {
            line: line_no,
            reason: format!("invalid latitude {:?}", fields[2]),
        })?;
        let lon: f64 = fields[3].parse().map_err(|_| MobilityError::Parse {
            line: line_no,
            reason: format!("invalid longitude {:?}", fields[3]),
        })?;
        let location = GeoPoint::new(lat, lon)
            .map_err(|e| MobilityError::Parse { line: line_no, reason: e.to_string() })?;
        per_user.entry(user).or_default().push(Record::new(Seconds::new(timestamp), location));
    }

    let traces: Result<Vec<Trace>, MobilityError> = per_user
        .into_iter()
        .map(|(user, records)| Trace::from_unordered(UserId::new(user), records))
        .collect();
    Dataset::new(traces?)
}

/// Parses one driver's trace in the cabspotting layout.
///
/// Each line is `latitude longitude occupancy unix-timestamp`, newest first
/// in the original dataset; records are sorted by timestamp on load. The
/// occupancy flag is ignored (the paper's metrics do not use it).
///
/// # Errors
///
/// Returns [`MobilityError::Parse`] for malformed lines (including a `NaN`
/// or infinite timestamp) and [`MobilityError::EmptyTrace`] if the input has
/// no record.
// audit:allow(R1): public API — the loader for the paper's cabspotting dataset
pub fn read_cabspotting_trace<R: Read>(user: UserId, reader: R) -> Result<Trace, MobilityError> {
    let reader = BufReader::new(reader);
    let mut records = Vec::new();
    for (i, line) in reader.lines().enumerate() {
        let line_no = i + 1;
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let fields: Vec<&str> = trimmed.split_whitespace().collect();
        if fields.len() != 4 {
            return Err(MobilityError::Parse {
                line: line_no,
                reason: format!("expected 4 whitespace-separated fields, got {}", fields.len()),
            });
        }
        let lat: f64 = fields[0].parse().map_err(|_| MobilityError::Parse {
            line: line_no,
            reason: format!("invalid latitude {:?}", fields[0]),
        })?;
        let lon: f64 = fields[1].parse().map_err(|_| MobilityError::Parse {
            line: line_no,
            reason: format!("invalid longitude {:?}", fields[1]),
        })?;
        let timestamp = parse_timestamp(fields[3], line_no)?;
        let location = GeoPoint::new(lat, lon)
            .map_err(|e| MobilityError::Parse { line: line_no, reason: e.to_string() })?;
        records.push(Record::new(Seconds::new(timestamp), location));
    }
    Trace::from_unordered(user, records)
}

/// Parses a timestamp field. `NaN` and `inf` parse as `f64` but have no
/// place on a timeline, so they are rejected with the rest.
fn parse_timestamp(field: &str, line: usize) -> Result<f64, MobilityError> {
    field.parse().ok().filter(|t: &f64| t.is_finite()).ok_or_else(|| MobilityError::Parse {
        line,
        reason: format!("invalid timestamp {field:?}: expected a finite number of seconds"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_dataset() -> Dataset {
        let t1 = Trace::new(
            UserId::new(1),
            vec![
                Record::new(Seconds::new(0.0), GeoPoint::new(37.7700, -122.4100).unwrap()),
                Record::new(Seconds::new(30.0), GeoPoint::new(37.7710, -122.4110).unwrap()),
            ],
        )
        .unwrap();
        let t2 = Trace::new(
            UserId::new(2),
            vec![Record::new(Seconds::new(10.0), GeoPoint::new(37.7800, -122.4200).unwrap())],
        )
        .unwrap();
        Dataset::new(vec![t1, t2]).unwrap()
    }

    #[test]
    fn csv_roundtrip_preserves_dataset() {
        let dataset = sample_dataset();
        let mut buffer = Vec::new();
        write_csv(&dataset, &mut buffer).unwrap();
        let text = String::from_utf8(buffer.clone()).unwrap();
        assert!(text.starts_with(CSV_HEADER));
        assert_eq!(text.lines().count(), 1 + dataset.record_count());

        let parsed = read_csv(buffer.as_slice()).unwrap();
        assert_eq!(parsed.len(), dataset.len());
        assert_eq!(parsed.record_count(), dataset.record_count());
        for (a, b) in dataset.paired_with(&parsed).unwrap() {
            assert_eq!(a.user(), b.user());
            for (ra, rb) in a.iter().zip(b.iter()) {
                assert!((ra.location().latitude() - rb.location().latitude()).abs() < 1e-6);
                assert!((ra.timestamp().as_f64() - rb.timestamp().as_f64()).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn read_csv_without_header_and_with_blank_lines() {
        let text = "\n1,0,37.77,-122.41\n\n1,30,37.78,-122.42\n";
        let parsed = read_csv(text.as_bytes()).unwrap();
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed.record_count(), 2);
    }

    #[test]
    fn read_csv_sorts_unordered_records() {
        let text = "1,100,37.78,-122.42\n1,0,37.77,-122.41\n";
        let parsed = read_csv(text.as_bytes()).unwrap();
        let trace = parsed.trace_at(0);
        assert_eq!(trace.first().timestamp().as_f64(), 0.0);
        assert_eq!(trace.record(1).timestamp().as_f64(), 100.0);
    }

    #[test]
    fn write_csv_prints_one_record_per_line_in_trace_order() {
        let mut buffer = Vec::new();
        write_csv(&sample_dataset(), &mut buffer).unwrap();
        let text = String::from_utf8(buffer).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines,
            [
                CSV_HEADER,
                "1,0,37.770000,-122.410000",
                "1,30,37.771000,-122.411000",
                "2,10,37.780000,-122.420000"
            ]
        );
    }

    #[test]
    fn read_csv_reports_malformed_lines() {
        for (text, fragment) in [
            ("1,0,37.77", "4 comma-separated"),
            ("x,0,37.77,-122.41", "user id"),
            ("1,zzz,37.77,-122.41", "timestamp"),
            // `NaN` and `±inf` parse as `f64`; the second record makes the
            // loader sort by timestamp.
            ("1,NaN,37.77,-122.41\n1,5,37.71,-122.41", "timestamp"),
            ("1,inf,37.77,-122.41\n1,5,37.71,-122.41", "timestamp"),
            ("1,-inf,37.77,-122.41\n1,5,37.71,-122.41", "timestamp"),
            ("1,0,91.5,-122.41", "latitude"),
            ("1,0,37.77,abc", "longitude"),
        ] {
            let err = read_csv(text.as_bytes()).unwrap_err();
            let msg = err.to_string();
            assert!(msg.contains(fragment), "text {text:?} -> {msg}");
            assert!(msg.contains("line 1"), "text {text:?} -> {msg}");
        }
        assert!(matches!(read_csv("".as_bytes()), Err(MobilityError::EmptyDataset)));
    }

    #[test]
    fn cabspotting_layout_is_parsed_and_sorted() {
        // Newest-first like the original dataset; occupancy flag is ignored.
        let text = "37.75153 -122.39447 0 1213084687\n37.75149 -122.39447 1 1213084659\n";
        let trace = read_cabspotting_trace(UserId::new(5), text.as_bytes()).unwrap();
        assert_eq!(trace.user(), UserId::new(5));
        assert_eq!(trace.len(), 2);
        let view = trace.view();
        assert!(view.first().timestamp() < view.record(1).timestamp());
        assert!((view.first().location().latitude() - 37.75149).abs() < 1e-9);
    }

    #[test]
    fn cabspotting_rejects_malformed_lines() {
        assert!(read_cabspotting_trace(UserId::new(1), "37.7 -122.4 0".as_bytes()).is_err());
        assert!(read_cabspotting_trace(UserId::new(1), "lat -122.4 0 123".as_bytes()).is_err());
        assert!(read_cabspotting_trace(UserId::new(1), "".as_bytes()).is_err());
        for bad in ["NaN", "inf", "-inf"] {
            let text = format!("37.7 -122.4 0 {bad}\n37.71 -122.41 1 5\n");
            let err = read_cabspotting_trace(UserId::new(1), text.as_bytes()).unwrap_err();
            assert!(matches!(err, MobilityError::Parse { line: 1, .. }), "{text:?} -> {err}");
            assert!(err.to_string().contains("timestamp"), "{text:?} -> {err}");
        }
    }
}
