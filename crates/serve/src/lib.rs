//! # geopriv-serve
//!
//! Online per-user LPPM enforcement behind an HTTP request path.
//!
//! The offline framework (Cerf et al., Middleware 2016) ends with a
//! deployment artifact: a [`geopriv_core::PerUserRecommendation`] naming,
//! for every user, the configuration point her protection mechanism should
//! run at. This crate is the serving side of that hand-off — a long-running
//! service that
//!
//! 1. **loads** the recommendation (PR 5's JSON export is the wire format,
//!    parsed by [`geopriv_core::report::per_user_recommendation_from_json`]),
//! 2. **instantiates** one mechanism per user at her recommended point via
//!    [`geopriv_core::LppmFactory::instantiate_at`] — unknown or infeasible
//!    users ride the dataset-level fallback, per the normative policy on
//!    [`geopriv_core::UserVerdict`],
//! 3. **protects** incoming `(user, record)` updates record-at-a-time
//!    through [`geopriv_lppm::open_stream`] sessions, behind a fixed
//!    middleware stack (panic catching, metrics, per-user rate limiting,
//!    request timeout).
//!
//! ## Determinism contract
//!
//! With a fixed master seed, the records a user's stream releases are
//! **bit-identical** to the offline [`geopriv_lppm::Lppm::protect_view`] of
//! the same record sequence at the same point, seeded with
//! `StdRng::seed_from_u64(derive_user_seed(master_seed, user))` — the wire
//! format renders floats in shortest round-trip form, so the contract holds
//! end to end *through the HTTP responses*, not just in memory. See
//! [`registry`] for the full statement and the equivalence tests.
//!
//! ## Example
//!
//! ```no_run
//! use geopriv_core::GeoIndistinguishabilityFactory;
//! use geopriv_serve::{AssignmentRegistry, GeoPrivServer, ServeConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let json = std::fs::read_to_string("per_user_recommendation.json")?;
//! let registry = AssignmentRegistry::from_json(
//!     Box::new(GeoIndistinguishabilityFactory::new()),
//!     &json,
//!     20161212,
//! )?;
//! let server = GeoPrivServer::start(registry, &ServeConfig::default())?;
//! println!("serving on {}", server.local_addr());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod metrics;
pub mod middleware;
pub mod protocol;
pub mod registry;
pub mod server;

pub use client::HttpClient;
pub use metrics::RequestMetrics;
pub use middleware::{Handler, HttpRequest, HttpResponse, MiddlewareStack};
pub use protocol::ProtectRequest;
pub use registry::{derive_user_seed, Assignment, AssignmentRegistry, AssignmentSource, Withheld};
pub use server::{GeoPrivServer, ServeConfig};
