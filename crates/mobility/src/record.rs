//! Individual mobility records and user identifiers.

use geopriv_geo::{GeoPoint, Seconds};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a user (a taxi driver in the paper's dataset).
///
/// # Examples
///
/// ```
/// use geopriv_mobility::UserId;
///
/// let id = UserId::new(42);
/// assert_eq!(id.value(), 42);
/// assert_eq!(id.to_string(), "user-42");
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct UserId(u64);

impl UserId {
    /// Creates a user identifier.
    pub const fn new(id: u64) -> Self {
        Self(id)
    }

    /// The numeric value of the identifier.
    pub const fn value(self) -> u64 {
        self.0
    }
}

impl fmt::Display for UserId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "user-{}", self.0)
    }
}

impl From<u64> for UserId {
    fn from(id: u64) -> Self {
        Self(id)
    }
}

/// One timestamped location record of a mobility trace.
///
/// Timestamps are expressed in seconds from the start of the observation
/// period (the simulated datasets start at `t = 0`; imported datasets may use
/// Unix timestamps — only differences matter).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Record {
    timestamp: Seconds,
    location: GeoPoint,
}

impl Record {
    /// Creates a record from a timestamp and a location.
    #[inline]
    pub fn new(timestamp: Seconds, location: GeoPoint) -> Self {
        Self { timestamp, location }
    }

    /// The record's timestamp.
    #[inline]
    pub fn timestamp(&self) -> Seconds {
        self.timestamp
    }

    /// The record's location.
    #[inline]
    pub fn location(&self) -> GeoPoint {
        self.location
    }

    /// Returns a copy of the record with a different location (same timestamp).
    ///
    /// This is the primitive used by LPPMs, which perturb *where* the user
    /// was but not *when* she was observed.
    pub fn with_location(&self, location: GeoPoint) -> Record {
        Record { timestamp: self.timestamp, location }
    }

    /// Returns a copy of the record with a different timestamp (same location).
    pub fn with_timestamp(&self, timestamp: Seconds) -> Record {
        Record { timestamp, location: self.location }
    }
}

impl fmt::Display for Record {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} @ {}", self.location, self.timestamp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gp(lat: f64, lon: f64) -> GeoPoint {
        GeoPoint::new(lat, lon).unwrap()
    }

    #[test]
    fn user_id_roundtrip() {
        let id = UserId::new(7);
        assert_eq!(id.value(), 7);
        assert_eq!(UserId::from(7u64), id);
        assert_eq!(id.to_string(), "user-7");
        assert!(UserId::new(1) < UserId::new(2));
    }

    #[test]
    fn record_accessors() {
        let r = Record::new(Seconds::new(120.0), gp(37.77, -122.41));
        assert_eq!(r.timestamp().as_f64(), 120.0);
        assert_eq!(r.location().latitude(), 37.77);
        assert!(r.to_string().contains("120"));
    }

    #[test]
    fn with_location_preserves_timestamp() {
        let r = Record::new(Seconds::new(60.0), gp(37.77, -122.41));
        let moved = r.with_location(gp(37.78, -122.42));
        assert_eq!(moved.timestamp(), r.timestamp());
        assert_eq!(moved.location().latitude(), 37.78);
    }

    #[test]
    fn with_timestamp_preserves_location() {
        let r = Record::new(Seconds::new(60.0), gp(37.77, -122.41));
        let later = r.with_timestamp(Seconds::new(90.0));
        assert_eq!(later.location(), r.location());
        assert_eq!(later.timestamp().as_f64(), 90.0);
    }
}
