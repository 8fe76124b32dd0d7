//! The composable middleware stack of the serving layer.
//!
//! A [`Handler`] turns an [`HttpRequest`] into an [`HttpResponse`]; a
//! [`Layer`] wraps a handler with one cross-cutting concern. The
//! [`MiddlewareStack`] applies layers declaratively in the order they are
//! added — first added is **outermost** — so the server can state its fixed
//! order in one place:
//!
//! ```text
//! PanicCatch → Metrics → RateLimit → Timeout → Router
//! ```
//!
//! Consequences of that order (and the reason it is fixed):
//!
//! * a panic anywhere below is converted to a 500 at the very top, so the
//!   accept loop never dies;
//! * metrics sit above rate limiting and timeouts, so 429s and 504s are
//!   *counted* (only panics bypass the counters — the 500 is synthesized
//!   above the metrics layer);
//! * the rate limiter rejects before any protection work is spent;
//! * the timeout measures the actual handler work, innermost — with
//!   side-effecting routes exempted from response replacement
//!   ([`Timeout::exempt`]), because by then the session has already
//!   advanced and a 504 would invite a stream-desynchronizing retry.

use crate::metrics::RequestMetrics;
use crate::protocol::error_json;
use geopriv_core::json::JsonValue;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tiny_http::Method;

/// One parsed request, decoupled from the transport so handlers and layers
/// are testable without sockets.
#[derive(Debug, Clone)]
pub struct HttpRequest {
    /// The request method.
    pub method: Method,
    /// The request path (no query handling; the serving API needs none).
    pub path: String,
    /// The request body as UTF-8 (empty when absent or not UTF-8).
    pub body: String,
}

impl HttpRequest {
    /// The user a request concerns, when one can be determined cheaply: the
    /// `user` member of a `/protect` body, or the trailing id of
    /// `/assignment/<id>`. Rate limiting keys on this; requests without a
    /// user (health, metrics) are not user-limited.
    pub fn user_hint(&self) -> Option<u64> {
        if let Some(id) = self.path.strip_prefix("/assignment/") {
            return id.parse().ok();
        }
        if self.path == "/protect" {
            return JsonValue::parse(&self.body).ok()?.get("user")?.as_u64();
        }
        None
    }

    /// The route label used for metrics: known routes collapse per-user
    /// paths (`/assignment/7` → `/assignment`), everything else is
    /// `"other"` so hostile paths cannot grow the counter map unboundedly.
    pub fn route_label(&self) -> &'static str {
        match self.path.as_str() {
            "/protect" => "/protect",
            "/healthz" => "/healthz",
            "/metrics" => "/metrics",
            path if path.starts_with("/assignment/") => "/assignment",
            _ => "other",
        }
    }
}

/// One response: status, content type, UTF-8 body.
#[derive(Debug, Clone)]
pub struct HttpResponse {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: String,
}

impl HttpResponse {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> HttpResponse {
        HttpResponse { status, content_type: "application/json", body }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: String) -> HttpResponse {
        HttpResponse { status, content_type: "text/plain; charset=utf-8", body }
    }
}

/// A request handler. The router at the bottom of the stack is one; every
/// wrapped stack is one too.
pub trait Handler: Send + Sync {
    /// Handles one request.
    fn handle(&self, request: &HttpRequest) -> HttpResponse;
}

impl<F> Handler for F
where
    F: Fn(&HttpRequest) -> HttpResponse + Send + Sync,
{
    fn handle(&self, request: &HttpRequest) -> HttpResponse {
        self(request)
    }
}

/// One middleware concern, applied by wrapping an inner handler.
pub trait Layer {
    /// Wraps `inner`, returning the composed handler.
    fn wrap(self: Box<Self>, inner: Box<dyn Handler>) -> Box<dyn Handler>;
}

/// A declarative, ordered stack of layers.
///
/// ```
/// use geopriv_serve::middleware::{
///     HttpRequest, HttpResponse, Handler, MiddlewareStack, PanicCatch,
/// };
///
/// let stack = MiddlewareStack::new().layer(PanicCatch).service(Box::new(
///     |_request: &HttpRequest| HttpResponse::text(200, "ok".to_string()),
/// ));
/// let request = HttpRequest {
///     method: tiny_http::Method::Get,
///     path: "/healthz".to_string(),
///     body: String::new(),
/// };
/// assert_eq!(stack.handle(&request).status, 200);
/// ```
#[derive(Default)]
pub struct MiddlewareStack {
    layers: Vec<Box<dyn Layer>>,
}

impl MiddlewareStack {
    /// An empty stack.
    pub fn new() -> MiddlewareStack {
        MiddlewareStack::default()
    }

    /// Appends a layer. The first layer added ends up **outermost**.
    #[must_use]
    pub fn layer<L: Layer + 'static>(mut self, layer: L) -> MiddlewareStack {
        self.layers.push(Box::new(layer));
        self
    }

    /// Closes the stack over the innermost handler (the router), wrapping in
    /// reverse declaration order so declaration order reads outermost-first.
    pub fn service(self, handler: Box<dyn Handler>) -> Box<dyn Handler> {
        self.layers.into_iter().rev().fold(handler, |inner, layer| layer.wrap(inner))
    }
}

// --- PanicCatch ------------------------------------------------------------

/// Outermost layer: converts a panic anywhere below into a 500 response so
/// one poisoned request cannot take the accept loop down.
pub struct PanicCatch;

struct PanicCatchHandler {
    inner: Box<dyn Handler>,
}

impl Layer for PanicCatch {
    fn wrap(self: Box<Self>, inner: Box<dyn Handler>) -> Box<dyn Handler> {
        Box::new(PanicCatchHandler { inner })
    }
}

impl Handler for PanicCatchHandler {
    fn handle(&self, request: &HttpRequest) -> HttpResponse {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.inner.handle(request)))
            .unwrap_or_else(|_| {
                HttpResponse::json(500, error_json("internal error (handler panicked)"))
            })
    }
}

// --- Metrics ---------------------------------------------------------------

/// Records every non-panicking request into a shared [`RequestMetrics`]:
/// route label, final status (including 429s and 504s minted below it) and
/// wall-clock latency.
pub struct MetricsLayer {
    metrics: Arc<RequestMetrics>,
}

impl MetricsLayer {
    /// Creates the layer over a shared metrics store.
    pub fn new(metrics: Arc<RequestMetrics>) -> MetricsLayer {
        MetricsLayer { metrics }
    }
}

struct MetricsHandler {
    metrics: Arc<RequestMetrics>,
    inner: Box<dyn Handler>,
}

impl Layer for MetricsLayer {
    fn wrap(self: Box<Self>, inner: Box<dyn Handler>) -> Box<dyn Handler> {
        Box::new(MetricsHandler { metrics: self.metrics, inner })
    }
}

impl Handler for MetricsHandler {
    fn handle(&self, request: &HttpRequest) -> HttpResponse {
        let start = Instant::now();
        let response = self.inner.handle(request);
        self.metrics.record(request.route_label(), response.status, start.elapsed());
        response
    }
}

// --- RateLimit -------------------------------------------------------------

/// Per-user token bucket: each user may burst up to `burst` requests and
/// refills at `per_second` tokens per second. Requests without a user hint
/// (health, metrics) are never limited. Over-limit requests are answered
/// 429 before any protection work is spent.
///
/// The bucket map is capped at [`RateLimit::MAX_BUCKETS`]: at the cap, a
/// new user evicts the longest-idle bucket (which has therefore refilled
/// the most), so a client iterating fabricated user ids bounds the map
/// instead of growing it without limit.
pub struct RateLimit {
    burst: u32,
    per_second: f64,
}

impl RateLimit {
    /// Cap on concurrently tracked per-user buckets.
    pub const MAX_BUCKETS: usize = 65_536;

    /// Creates the limiter. `burst` is clamped to at least 1.
    pub fn new(burst: u32, per_second: f64) -> RateLimit {
        RateLimit { burst: burst.max(1), per_second: per_second.max(0.0) }
    }
}

struct Bucket {
    tokens: f64,
    refreshed: Instant,
}

struct RateLimitHandler {
    burst: f64,
    per_second: f64,
    buckets: Mutex<HashMap<u64, Bucket>>,
    inner: Box<dyn Handler>,
}

impl Layer for RateLimit {
    fn wrap(self: Box<Self>, inner: Box<dyn Handler>) -> Box<dyn Handler> {
        Box::new(RateLimitHandler {
            burst: f64::from(self.burst),
            per_second: self.per_second,
            buckets: Mutex::new(HashMap::new()),
            inner,
        })
    }
}

impl Handler for RateLimitHandler {
    fn handle(&self, request: &HttpRequest) -> HttpResponse {
        if let Some(user) = request.user_hint() {
            let now = Instant::now();
            let mut buckets = self.buckets.lock();
            if buckets.len() >= RateLimit::MAX_BUCKETS && !buckets.contains_key(&user) {
                // Evict the longest-idle bucket; by idling it has refilled
                // the most, so dropping it is the most forgiving choice.
                if let Some(&idle) = buckets.iter().min_by_key(|(_, b)| b.refreshed).map(|(u, _)| u)
                {
                    buckets.remove(&idle);
                }
            }
            let bucket =
                buckets.entry(user).or_insert(Bucket { tokens: self.burst, refreshed: now });
            let elapsed = now.duration_since(bucket.refreshed).as_secs_f64();
            bucket.tokens = (bucket.tokens + elapsed * self.per_second).min(self.burst);
            bucket.refreshed = now;
            if bucket.tokens < 1.0 {
                return HttpResponse::json(
                    429,
                    error_json(&format!("user {user} exceeded the request rate limit")),
                );
            }
            bucket.tokens -= 1.0;
        }
        self.inner.handle(request)
    }
}

// --- Timeout ---------------------------------------------------------------

/// Cooperative request deadline: the inner handler runs to completion, and
/// a response that took longer than the limit is replaced by a 504 (the
/// latency bound is enforced on the reply, not by killing the worker — the
/// registry below is synchronous and single-flight per connection).
///
/// Routes with session side effects must be exempted
/// ([`Timeout::exempt`]): by the time the 504 would be minted the inner
/// handler has already run, so for `/protect` the record was pushed and the
/// RNG consumed — replacing the computed response would invite the client
/// to retry an update that *was* applied, desynchronizing her online stream
/// from her real record sequence and breaking the offline bit-identity
/// contract. Exempt responses pass through untouched (the metrics layer
/// above still records their true latency).
pub struct Timeout {
    limit: Duration,
    exempt: Vec<&'static str>,
}

impl Timeout {
    /// Creates the layer with the given deadline.
    pub fn new(limit: Duration) -> Timeout {
        Timeout { limit, exempt: Vec::new() }
    }

    /// Exempts a route label ([`HttpRequest::route_label`]) from response
    /// replacement — for routes whose handler has session side effects that
    /// a 504-triggered retry would duplicate.
    #[must_use]
    pub fn exempt(mut self, route: &'static str) -> Timeout {
        self.exempt.push(route);
        self
    }
}

struct TimeoutHandler {
    limit: Duration,
    exempt: Vec<&'static str>,
    inner: Box<dyn Handler>,
}

impl Layer for Timeout {
    fn wrap(self: Box<Self>, inner: Box<dyn Handler>) -> Box<dyn Handler> {
        Box::new(TimeoutHandler { limit: self.limit, exempt: self.exempt, inner })
    }
}

impl Handler for TimeoutHandler {
    fn handle(&self, request: &HttpRequest) -> HttpResponse {
        let start = Instant::now();
        let response = self.inner.handle(request);
        if start.elapsed() > self.limit && !self.exempt.contains(&request.route_label()) {
            return HttpResponse::json(
                504,
                error_json(&format!("request exceeded the {} ms deadline", self.limit.as_millis())),
            );
        }
        response
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(path: &str) -> HttpRequest {
        HttpRequest { method: Method::Get, path: path.to_string(), body: String::new() }
    }

    fn protect(user: u64) -> HttpRequest {
        HttpRequest {
            method: Method::Post,
            path: "/protect".to_string(),
            body: format!("{{\"user\": {user}, \"t\": 0, \"lat\": 0, \"lon\": 0}}"),
        }
    }

    fn ok_handler() -> Box<dyn Handler> {
        Box::new(|_request: &HttpRequest| HttpResponse::text(200, "ok".to_string()))
    }

    #[test]
    fn user_hints_and_route_labels() {
        assert_eq!(protect(42).user_hint(), Some(42));
        assert_eq!(get("/assignment/7").user_hint(), Some(7));
        assert_eq!(get("/assignment/seven").user_hint(), None);
        assert_eq!(get("/healthz").user_hint(), None);
        assert_eq!(get("/metrics").route_label(), "/metrics");
        assert_eq!(get("/assignment/7").route_label(), "/assignment");
        assert_eq!(get("/../../etc/passwd").route_label(), "other");
    }

    #[test]
    fn panic_catch_converts_panics_to_500() {
        let stack = MiddlewareStack::new()
            .layer(PanicCatch)
            // audit:allow(P1): deliberate panic — this test exists to prove PanicCatch converts it
            .service(Box::new(|_request: &HttpRequest| -> HttpResponse { panic!("boom") }));
        let response = stack.handle(&get("/healthz"));
        assert_eq!(response.status, 500);
        assert!(response.body.contains("internal error"));
        // And a healthy handler passes through untouched.
        let stack = MiddlewareStack::new().layer(PanicCatch).service(ok_handler());
        assert_eq!(stack.handle(&get("/healthz")).status, 200);
    }

    #[test]
    fn metrics_layer_counts_inner_statuses() {
        let metrics = Arc::new(RequestMetrics::new());
        let stack = MiddlewareStack::new()
            .layer(MetricsLayer::new(Arc::clone(&metrics)))
            .layer(RateLimit::new(1, 0.0))
            .service(ok_handler());
        assert_eq!(stack.handle(&protect(1)).status, 200);
        assert_eq!(stack.handle(&protect(1)).status, 429);
        // Both the success AND the rate-limited rejection were counted:
        // metrics sit above the limiter by construction.
        let text = metrics.render();
        assert!(text.contains("geopriv_requests_total{route=\"/protect\",status=\"200\"} 1"));
        assert!(text.contains("geopriv_requests_total{route=\"/protect\",status=\"429\"} 1"));
    }

    #[test]
    fn rate_limiter_is_per_user_and_skips_unkeyed_routes() {
        let stack = MiddlewareStack::new().layer(RateLimit::new(2, 0.0)).service(ok_handler());
        assert_eq!(stack.handle(&protect(1)).status, 200);
        assert_eq!(stack.handle(&protect(1)).status, 200);
        assert_eq!(stack.handle(&protect(1)).status, 429);
        // Another user has her own bucket.
        assert_eq!(stack.handle(&protect(2)).status, 200);
        // Unkeyed routes are never limited.
        for _ in 0..10 {
            assert_eq!(stack.handle(&get("/metrics")).status, 200);
        }
    }

    #[test]
    fn timeout_replaces_slow_responses_with_504() {
        let stack = MiddlewareStack::new().layer(Timeout::new(Duration::from_millis(5))).service(
            Box::new(|_request: &HttpRequest| {
                std::thread::sleep(Duration::from_millis(20));
                HttpResponse::text(200, "late".to_string())
            }),
        );
        let response = stack.handle(&get("/healthz"));
        assert_eq!(response.status, 504);
        assert!(response.body.contains("deadline"));
        // Fast handlers are untouched.
        let stack = MiddlewareStack::new()
            .layer(Timeout::new(Duration::from_secs(5)))
            .service(ok_handler());
        assert_eq!(stack.handle(&get("/healthz")).status, 200);
    }

    #[test]
    fn timeout_exempts_side_effecting_routes() {
        // A slow /protect has already advanced the user's session; its
        // computed response must pass through, not be replaced by a 504
        // that would invite a duplicating retry.
        let slow: Box<dyn Handler> = Box::new(|_request: &HttpRequest| {
            std::thread::sleep(Duration::from_millis(20));
            HttpResponse::text(200, "applied".to_string())
        });
        let stack = MiddlewareStack::new()
            .layer(Timeout::new(Duration::from_millis(5)).exempt("/protect"))
            .service(slow);
        let response = stack.handle(&protect(1));
        assert_eq!(response.status, 200);
        assert_eq!(response.body, "applied");
        // Non-exempt routes are still bounded.
        assert_eq!(stack.handle(&get("/healthz")).status, 504);
    }

    #[test]
    fn rate_limit_bucket_map_is_capped() {
        let stack = MiddlewareStack::new().layer(RateLimit::new(1, 0.0)).service(ok_handler());
        // Drain user 0's bucket: burst 1, no refill.
        assert_eq!(stack.handle(&get("/assignment/0")).status, 200);
        assert_eq!(stack.handle(&get("/assignment/0")).status, 429);
        std::thread::sleep(Duration::from_millis(2));
        // A hostile sweep of fresh user ids fills the map to the cap and
        // forces one eviction — of user 0, by then the longest idle.
        for user in 1..=RateLimit::MAX_BUCKETS as u64 {
            assert_eq!(stack.handle(&get(&format!("/assignment/{user}"))).status, 200);
        }
        // Her next request opens a fresh full bucket: the drained (and
        // evicted) state is gone, and the map never exceeded the cap.
        assert_eq!(stack.handle(&get("/assignment/0")).status, 200);
    }

    #[test]
    fn declaration_order_is_outermost_first() {
        // A panic below the limiter: PanicCatch first must still win.
        let stack = MiddlewareStack::new()
            .layer(PanicCatch)
            .layer(RateLimit::new(1, 0.0))
            // audit:allow(P1): deliberate panic below the limiter — exercises PanicCatch ordering
            .service(Box::new(|_request: &HttpRequest| -> HttpResponse { panic!("inner panic") }));
        assert_eq!(stack.handle(&protect(9)).status, 500);
        // The limiter still saw the request (its bucket drained), proving it
        // sat inside PanicCatch: the second call 429s instead of panicking.
        assert_eq!(stack.handle(&protect(9)).status, 429);
    }
}
