//! The assignment registry: which configuration point each user is served
//! at, and the live per-user protection sessions.
//!
//! The registry is loaded once at startup from a
//! [`PerUserRecommendation`] — the offline pipeline's deployment artifact
//! (PR 5's JSON export is the wire format). Every user row is resolved to a
//! concrete [`Assignment`] eagerly, so a tampered or out-of-space point
//! surfaces at load time, not on her first request. Request-time users
//! absent from the recommendation are assigned the dataset-level point
//! lazily, per the normative fallback policy on
//! [`geopriv_core::UserVerdict`].
//!
//! ## Determinism contract
//!
//! A user's protected stream is a pure function of
//! `(master seed, user id, her configuration point, her record sequence)`:
//! sessions are seeded with [`derive_user_seed`] and protected through
//! [`geopriv_lppm::open_stream`], which runs the mechanism's one kernel, so
//! the released records are bit-identical to the offline
//! [`geopriv_lppm::Lppm::protect_dataset`] of the same trace under
//! `StdRng::seed_from_u64(derive_user_seed(master_seed, user))`. Restarting
//! the service (or replaying the requests elsewhere) reproduces the exact
//! same released coordinates.
//!
//! ## Resource bounds
//!
//! Live sessions are LRU-capped ([`DEFAULT_MAX_SESSIONS`]) so a client
//! iterating fabricated user ids cannot grow server memory without bound. A
//! session holds only its mechanism's kernel state and costs O(1) per
//! update, whatever the mechanism.

use geopriv_core::{json, CoreError, LppmFactory, PerUserRecommendation};
use geopriv_lppm::{open_stream, ConfigPoint, Lppm, LppmStream};
use geopriv_mobility::{Record, UserId};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt;

/// Derives the deterministic per-user session seed from the service master
/// seed (same FNV-1a-plus-golden-ratio mixing as the sweep engine's
/// `derive_point_seed`, over the user id instead of the point token).
pub fn derive_user_seed(master_seed: u64, user: UserId) -> u64 {
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325; // FNV-1a 64-bit offset basis.
    for byte in user.value().to_le_bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3); // FNV-1a 64-bit prime.
    }
    master_seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(hash)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Why a user is served at her assigned point.
#[derive(Debug, Clone, PartialEq)]
pub enum AssignmentSource {
    /// The user's own feasible recommendation.
    Own,
    /// The dataset-level fallback point, with the policy reason.
    DatasetFallback {
        /// Why the fallback applies (verdict reason, unknown user, or a
        /// point that failed to instantiate).
        reason: String,
    },
}

impl AssignmentSource {
    /// Short machine-stable label (`own` / `dataset-fallback`).
    pub fn label(&self) -> &'static str {
        match self {
            AssignmentSource::Own => "own",
            AssignmentSource::DatasetFallback { .. } => "dataset-fallback",
        }
    }
}

/// One user's resolved serving assignment.
#[derive(Debug, Clone, PartialEq)]
pub struct Assignment {
    /// The configuration point the user's mechanism is instantiated at.
    pub point: ConfigPoint,
    /// Whether the point is her own or the dataset fallback, and why.
    pub source: AssignmentSource,
}

impl Assignment {
    /// Renders the assignment as the `/assignment/<id>` response body.
    pub fn to_json(&self, user: u64) -> String {
        let point: Vec<String> = self
            .point
            .values()
            .iter()
            .map(|(name, value)| format!("\"{name}\": {value}"))
            .collect();
        let mut out = format!(
            "{{\"user\": {user}, \"source\": \"{}\", \"point\": {{{}}}",
            self.source.label(),
            point.join(", ")
        );
        if let AssignmentSource::DatasetFallback { reason } = &self.source {
            out.push_str(&format!(", \"reason\": {}", json::string(reason)));
        }
        out.push('}');
        out
    }
}

/// Cap on concurrently live protection sessions (and the bound a hostile
/// client iterating user ids can grow the session map to). Well above any
/// real per-instance population.
///
/// At the cap, opening a session for a new user evicts the
/// least-recently-used one. Eviction is a documented degradation, not a
/// silent one: an evicted user's next update starts a fresh session (her
/// `released` counter restarts at 1), and the determinism contract then
/// holds for the new session's record sequence.
pub const DEFAULT_MAX_SESSIONS: usize = 65_536;

/// The error of [`AssignmentRegistry::protect`]: the user's mechanism
/// withheld the update, so there is no protected record to answer with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Withheld;

impl fmt::Display for Withheld {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("the mechanism withheld this update")
    }
}

impl std::error::Error for Withheld {}

struct Session {
    stream: LppmStream,
    /// Logical access time (a per-registry counter, not wall clock), for
    /// least-recently-used eviction at the session cap.
    last_used: u64,
}

#[derive(Default)]
struct Sessions {
    map: HashMap<u64, Session>,
    tick: u64,
}

/// Per-user assignments and live protection sessions.
pub struct AssignmentRegistry {
    factory: Box<dyn LppmFactory>,
    dataset_point: ConfigPoint,
    /// The dataset-level mechanism, the fallback of every session whose
    /// point fails to instantiate (per-session state lives in the stream).
    dataset_lppm: Box<dyn Lppm>,
    assignments: HashMap<u64, Assignment>,
    master_seed: u64,
    sessions: Mutex<Sessions>,
    max_sessions: usize,
}

impl AssignmentRegistry {
    /// Resolves a recommendation against a mechanism factory.
    ///
    /// Every known user's point is instantiated eagerly; a user whose point
    /// fails (a tampered document, or a factory with a narrower space than
    /// the one swept offline) is re-assigned the dataset-level point with
    /// the failure as her fallback reason — per-user load problems degrade,
    /// they do not abort.
    ///
    /// # Errors
    ///
    /// Returns the instantiation error when the **dataset-level** point
    /// itself is unusable: then there is no fallback anchor and the service
    /// must not start.
    pub fn load(
        factory: Box<dyn LppmFactory>,
        recommendation: &PerUserRecommendation,
        master_seed: u64,
    ) -> Result<AssignmentRegistry, CoreError> {
        let dataset_point = recommendation.dataset.point.clone();
        let dataset_lppm = factory.instantiate_at(&dataset_point)?;
        let mut assignments = HashMap::with_capacity(recommendation.users.len());
        for user in &recommendation.users {
            let source = if user.used_fallback() {
                AssignmentSource::DatasetFallback { reason: user.verdict.to_string() }
            } else {
                AssignmentSource::Own
            };
            let assignment = match factory.instantiate_at(&user.point) {
                Ok(_) => Assignment { point: user.point.clone(), source },
                Err(e) => Assignment {
                    point: dataset_point.clone(),
                    source: AssignmentSource::DatasetFallback {
                        reason: format!("recommended point failed to instantiate: {e}"),
                    },
                },
            };
            assignments.insert(user.user.value(), assignment);
        }
        Ok(AssignmentRegistry {
            factory,
            dataset_point,
            dataset_lppm,
            assignments,
            master_seed,
            sessions: Mutex::new(Sessions::default()),
            max_sessions: DEFAULT_MAX_SESSIONS,
        })
    }

    /// Lowers the session cap below [`DEFAULT_MAX_SESSIONS`], so a test can
    /// reach it; `cap` is clamped to at least 1.
    #[cfg(test)]
    fn set_max_sessions(&mut self, cap: usize) {
        self.max_sessions = cap.max(1);
    }

    /// Loads a registry from the JSON wire format
    /// ([`geopriv_core::report::per_user_recommendation_to_json`]).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Parse`] for a malformed document, or the
    /// dataset-point instantiation error ([`AssignmentRegistry::load`]).
    pub fn from_json(
        factory: Box<dyn LppmFactory>,
        json: &str,
        master_seed: u64,
    ) -> Result<AssignmentRegistry, CoreError> {
        let recommendation = geopriv_core::report::per_user_recommendation_from_json(json)?;
        AssignmentRegistry::load(factory, &recommendation, master_seed)
    }

    /// The resolved assignment of one user. Users absent from the loaded
    /// recommendation get the dataset-level fallback — this never fails and
    /// never panics, whatever the id.
    pub fn assignment_for(&self, user: u64) -> Assignment {
        self.assignments.get(&user).cloned().unwrap_or_else(|| Assignment {
            point: self.dataset_point.clone(),
            source: AssignmentSource::DatasetFallback {
                reason: "user absent from the loaded recommendation".to_string(),
            },
        })
    }

    /// The dataset-level anchor point.
    pub fn dataset_point(&self) -> &ConfigPoint {
        &self.dataset_point
    }

    /// Number of users with a resolved (non-lazy) assignment.
    pub fn assigned_users(&self) -> usize {
        self.assignments.len()
    }

    /// Number of live protection sessions.
    pub fn active_sessions(&self) -> usize {
        self.sessions.lock().map.len()
    }

    /// Protects one record of one user's stream, opening her session on
    /// first contact. Returns the protected record and its 1-based position
    /// in her released stream. Live sessions are capped
    /// ([`DEFAULT_MAX_SESSIONS`]): at the cap, a new user evicts the
    /// least-recently-used session.
    ///
    /// # Errors
    ///
    /// Returns [`Withheld`] when her mechanism releases nothing for this
    /// record; the session still advanced past it.
    pub fn protect(&self, user: u64, record: Record) -> Result<(Record, usize), Withheld> {
        let user_id = UserId::new(user);
        let mut sessions = self.sessions.lock();
        sessions.tick += 1;
        let tick = sessions.tick;
        if !sessions.map.contains_key(&user) && sessions.map.len() >= self.max_sessions {
            // Evict the least-recently-used session. O(cap) scan, but
            // only on the hostile path (the map is already full of
            // other users) — a few hundred microseconds at the default
            // cap, against a map that would otherwise grow forever.
            // audit:allow(D1): `last_used` ticks are unique, so the hash-order scan has one minimum
            if let Some(&lru) = sessions.map.iter().min_by_key(|(_, s)| s.last_used).map(|(u, _)| u)
            {
                sessions.map.remove(&lru);
            }
        }
        let session = sessions.map.entry(user).or_insert_with(|| {
            let assignment = self.assignment_for(user);
            // A known user's point was validated at load time; the
            // fallback path re-uses the dataset mechanism.
            let seed = derive_user_seed(self.master_seed, user_id);
            let stream = match self.factory.instantiate_at(&assignment.point) {
                Ok(lppm) => open_stream(lppm.as_ref(), seed),
                Err(_) => open_stream(self.dataset_lppm.as_ref(), seed),
            };
            Session { stream, last_used: tick }
        });
        session.last_used = tick;
        let protected = session.stream.push(record).ok_or(Withheld)?;
        Ok((protected, session.stream.len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geopriv_core::{
        GeoIndistinguishabilityFactory, MetricId, Recommendation, UserRecommendation, UserVerdict,
    };
    use geopriv_geo::{GeoPoint, Seconds};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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
                    verdict: UserVerdict::Infeasible { reason: "objectives conflict".into() },
                    point: point(0.01),
                    predictions: vec![],
                },
            ],
        }
    }

    type TestResult = Result<(), Box<dyn std::error::Error>>;

    fn registry() -> Result<AssignmentRegistry, Box<dyn std::error::Error>> {
        Ok(AssignmentRegistry::load(
            Box::new(GeoIndistinguishabilityFactory::new()),
            &recommendation(),
            7,
        )?)
    }

    #[test]
    fn user_seeds_are_stable_and_distinct() {
        let a = derive_user_seed(7, UserId::new(1));
        assert_eq!(a, derive_user_seed(7, UserId::new(1)));
        assert_ne!(a, derive_user_seed(7, UserId::new(2)));
        assert_ne!(a, derive_user_seed(8, UserId::new(1)));
    }

    #[test]
    fn known_users_resolve_to_their_recommended_points() -> TestResult {
        let registry = registry()?;
        assert_eq!(registry.assigned_users(), 2);
        let own = registry.assignment_for(1);
        assert_eq!(own.source, AssignmentSource::Own);
        assert_eq!(own.point, point(0.02));
        let fallback = registry.assignment_for(2);
        assert_eq!(fallback.source.label(), "dataset-fallback");
        assert_eq!(fallback.point, point(0.01));
        assert!(fallback.to_json(2).contains("objectives conflict"));
        Ok(())
    }

    #[test]
    fn unknown_and_hostile_user_ids_fall_back_without_panicking() -> TestResult {
        let registry = registry()?;
        for user in [0, 3, 999_999, u64::MAX] {
            let assignment = registry.assignment_for(user);
            assert_eq!(assignment.point, point(0.01));
            assert!(matches!(assignment.source, AssignmentSource::DatasetFallback { .. }));
            // And protecting a record for that user works end to end.
            let record = Record::new(Seconds::new(0.0), GeoPoint::new(48.1, -1.67)?);
            let (protected, released) = registry.protect(user, record)?;
            assert_eq!(released, 1);
            assert!(protected.location().latitude().is_finite());
        }
        assert_eq!(registry.active_sessions(), 4);
        Ok(())
    }

    #[test]
    fn tampered_user_points_degrade_to_the_fallback_at_load() -> TestResult {
        let mut tampered = recommendation();
        tampered.users.first_mut().ok_or("fixture has no users")?.point = point(f64::NAN);
        let registry = AssignmentRegistry::load(
            Box::new(GeoIndistinguishabilityFactory::new()),
            &tampered,
            7,
        )?;
        let assignment = registry.assignment_for(1);
        assert_eq!(assignment.point, point(0.01));
        assert!(assignment.to_json(1).contains("failed to instantiate"));
        Ok(())
    }

    #[test]
    fn an_unusable_dataset_point_refuses_to_load() {
        let mut broken = recommendation();
        broken.dataset.point = point(-1.0);
        let result =
            AssignmentRegistry::load(Box::new(GeoIndistinguishabilityFactory::new()), &broken, 7);
        assert!(result.is_err());
    }

    #[test]
    fn session_map_is_capped_with_lru_eviction() -> TestResult {
        let mut registry = registry()?;
        registry.set_max_sessions(3);
        let record = Record::new(Seconds::new(0.0), GeoPoint::new(48.1, -1.67)?);
        let later = Record::new(Seconds::new(30.0), GeoPoint::new(48.11, -1.67)?);
        // A hostile sweep over many fresh user ids stays bounded at the cap.
        for user in 0..100 {
            registry.protect(user, record)?;
            assert!(registry.active_sessions() <= 3, "cap exceeded at user {user}");
        }
        assert_eq!(registry.active_sessions(), 3);
        // The most recent users survived: their streams advance past 1.
        assert_eq!(registry.protect(99, later)?.1, 2);
        // An evicted user's next update starts a fresh session at 1 — the
        // documented degradation, never a panic or unbounded growth.
        assert_eq!(registry.protect(0, record)?.1, 1);
        Ok(())
    }

    #[test]
    fn sessions_reproduce_the_offline_protection_bit_for_bit() -> TestResult {
        let registry = registry()?;
        let mut records: Vec<Record> = Vec::new();
        for i in 0..20 {
            records.push(Record::new(
                Seconds::new(f64::from(i) * 30.0),
                GeoPoint::new(48.11 + f64::from(i) * 1e-4, -1.67)?,
            ));
        }
        let mut online = Vec::new();
        for &record in &records {
            online.push(registry.protect(1, record)?.0);
        }

        // Offline reference: protect the same trace columnarly at user 1's
        // own point with the derived session seed.
        let factory = GeoIndistinguishabilityFactory::new();
        let lppm = factory.instantiate_at(&point(0.02))?;
        let timestamps: Vec<f64> = records.iter().map(|r| r.timestamp().as_f64()).collect();
        let latitudes: Vec<f64> = records.iter().map(|r| r.location().latitude()).collect();
        let longitudes: Vec<f64> = records.iter().map(|r| r.location().longitude()).collect();
        let view = geopriv_mobility::TraceView::from_columns(
            UserId::new(1),
            &timestamps,
            &latitudes,
            &longitudes,
        );
        let actual = geopriv_mobility::Dataset::new(vec![view.to_trace()])?;
        let mut rng = StdRng::seed_from_u64(derive_user_seed(7, UserId::new(1)));
        let offline = lppm.protect_dataset(&actual, &mut rng)?;
        let trace = offline.trace_at(0);
        for (i, record) in online.iter().enumerate() {
            assert_eq!(*record, trace.record(i), "record {i} diverged online vs offline");
        }
        Ok(())
    }
}
