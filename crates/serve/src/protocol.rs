//! The `/protect` wire protocol: one location update in, one protected
//! record out.
//!
//! Requests and responses are small flat JSON objects, parsed with the
//! framework's own [`geopriv_core::json`] parser and rendered with the same
//! shortest round-trip float form as every other exporter — which is what
//! makes the online/offline bit-identity contract *testable through the
//! wire*: a protected coordinate survives render → parse with its exact
//! bits.

use geopriv_core::json::{self, JsonValue};
use geopriv_geo::{GeoPoint, Seconds};
use geopriv_mobility::Record;

/// One `POST /protect` body: a user's next raw location update.
///
/// ```json
/// {"user": 7, "t": 30.0, "lat": 48.1173, "lon": -1.6778}
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProtectRequest {
    /// The user sending the update.
    pub user: u64,
    /// Timestamp of the update, in seconds.
    pub t: f64,
    /// Actual latitude, degrees.
    pub lat: f64,
    /// Actual longitude, degrees.
    pub lon: f64,
}

impl ProtectRequest {
    /// Parses a request body. Malformed JSON, missing members, a
    /// non-integer user or out-of-range coordinates are all rejected with a
    /// reason (the server answers 400 with it).
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason string on any malformation.
    pub fn from_json(body: &str) -> Result<ProtectRequest, String> {
        let value = JsonValue::parse(body).map_err(|e| e.to_string())?;
        let user = value.get("user").and_then(JsonValue::as_u64).ok_or_else(|| {
            // `as_u64` also rejects integers above 2^53 − 1: JSON
            // numbers travel as f64, where larger ids would silently
            // collide onto one value — one identity for two users.
            "\"user\" must be an unsigned integer (at most 2^53 - 1)".to_string()
        })?;
        let number = |key: &str| -> Result<f64, String> {
            let n = value
                .get(key)
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("\"{key}\" must be a number"))?;
            if n.is_finite() {
                Ok(n)
            } else {
                Err(format!("\"{key}\" must be finite"))
            }
        };
        let request =
            ProtectRequest { user, t: number("t")?, lat: number("lat")?, lon: number("lon")? };
        request.record()?; // Validate coordinates up front, one error path.
        Ok(request)
    }

    /// The update as a mobility [`Record`].
    ///
    /// # Errors
    ///
    /// Returns a reason string for coordinates outside the WGS-84 domain.
    pub fn record(&self) -> Result<Record, String> {
        let location = GeoPoint::new(self.lat, self.lon).map_err(|e| e.to_string())?;
        Ok(Record::new(Seconds::new(self.t), location))
    }

    /// Renders the request as its wire JSON (used by the bench client).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"user\": {}, \"t\": {}, \"lat\": {}, \"lon\": {}}}",
            self.user,
            json::number(self.t),
            json::number(self.lat),
            json::number(self.lon)
        )
    }
}

/// Renders a successful `/protect` response: the protected record and the
/// session's release count (1-based index of this record in the user's
/// protected stream).
pub fn protect_response_json(user: u64, protected: &Record, released: usize) -> String {
    format!(
        "{{\"user\": {user}, \"t\": {}, \"lat\": {}, \"lon\": {}, \"released\": {released}}}",
        json::number(protected.timestamp().as_f64()),
        json::number(protected.location().latitude()),
        json::number(protected.location().longitude()),
    )
}

/// Renders an error body: `{"error": "<reason>"}`.
pub fn error_json(reason: &str) -> String {
    format!("{{\"error\": {}}}", json::string(reason))
}

#[cfg(test)]
mod tests {
    use super::*;

    type TestResult = Result<(), Box<dyn std::error::Error>>;

    #[test]
    fn requests_round_trip_bit_exactly() -> TestResult {
        let request = ProtectRequest { user: 9, t: 30.5, lat: 48.117266, lon: -1.6777926 };
        let parsed = ProtectRequest::from_json(&request.to_json())?;
        assert_eq!(parsed, request);
        assert_eq!(parsed.lat.to_bits(), request.lat.to_bits());
        let record = parsed.record()?;
        assert_eq!(record.timestamp().as_f64(), 30.5);
        Ok(())
    }

    #[test]
    fn requests_render_the_documented_wire_form() {
        let request = ProtectRequest { user: 7, t: 30.0, lat: 48.1173, lon: -1.6778 };
        assert_eq!(
            request.to_json(),
            "{\"user\": 7, \"t\": 30, \"lat\": 48.1173, \"lon\": -1.6778}"
        );
    }

    #[test]
    fn malformed_requests_are_rejected_with_reasons() {
        for (body, needle) in [
            ("not json", "malformed"),
            ("{}", "\"user\""),
            ("{\"user\": -1, \"t\": 0, \"lat\": 0, \"lon\": 0}", "\"user\""),
            ("{\"user\": 1.5, \"t\": 0, \"lat\": 0, \"lon\": 0}", "\"user\""),
            ("{\"user\": 1, \"lat\": 0, \"lon\": 0}", "\"t\""),
            ("{\"user\": 1, \"t\": null, \"lat\": 0, \"lon\": 0}", "finite"),
            ("{\"user\": 1, \"t\": 0, \"lat\": 95.0, \"lon\": 0}", "latitude"),
            ("{\"user\": 1, \"t\": 0, \"lat\": 0, \"lon\": 181.0}", "longitude"),
        ] {
            let err = ProtectRequest::from_json(body).unwrap_err();
            assert!(err.contains(needle), "{body} → {err} (expected {needle})");
        }
    }

    #[test]
    fn responses_and_errors_render_as_json() -> TestResult {
        let record = ProtectRequest { user: 3, t: 1.0, lat: 10.25, lon: 20.5 }.record()?;
        let json = protect_response_json(3, &record, 7);
        let value = geopriv_core::json::JsonValue::parse(&json)?;
        assert_eq!(value.get("user").ok_or("missing user")?.as_u64(), Some(3));
        assert_eq!(value.get("lat").ok_or("missing lat")?.as_f64(), Some(10.25));
        assert_eq!(value.get("released").ok_or("missing released")?.as_u64(), Some(7));

        let err = error_json("bad \"input\"\n");
        let value = geopriv_core::json::JsonValue::parse(&err)?;
        assert_eq!(value.get("error").ok_or("missing error")?.as_str(), Some("bad \"input\"\n"));
        Ok(())
    }
}
