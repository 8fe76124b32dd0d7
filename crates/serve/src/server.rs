//! The serving loop: a [`GeoPrivServer`] binds a loopback address, applies
//! the fixed middleware stack and routes requests to the
//! [`AssignmentRegistry`].
//!
//! Routes:
//!
//! | Method | Path               | Response |
//! |--------|--------------------|----------|
//! | POST   | `/protect`         | protected record JSON; 400 malformed, 204 withheld by the mechanism |
//! | GET    | `/assignment/<id>` | the user's resolved assignment (never 404s on unknown ids — the fallback *is* the answer) |
//! | GET    | `/metrics`         | Prometheus text exposition |
//! | GET    | `/healthz`         | `ok` |
//!
//! The middleware order is fixed and declared in one place
//! ([`GeoPrivServer::start`]): `PanicCatch → Metrics → RateLimit → Timeout
//! → Router` (see [`crate::middleware`] for why). `/protect` is exempt from
//! the timeout's 504 replacement because its handler has session side
//! effects (see [`crate::middleware::Timeout`]).

use crate::metrics::RequestMetrics;
use crate::middleware::{
    Handler, HttpRequest, HttpResponse, MetricsLayer, MiddlewareStack, PanicCatch, RateLimit,
    Timeout,
};
use crate::protocol::{error_json, protect_response_json, ProtectRequest};
use crate::registry::{AssignmentRegistry, Withheld};
use std::net::SocketAddr;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;
use tiny_http::{Method, Response, Server};

/// Serving configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Per-user rate limit: `(burst, refill per second)`. `None` disables
    /// limiting.
    pub rate_limit: Option<(u32, f64)>,
    /// Cooperative per-request deadline.
    pub timeout: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            rate_limit: Some((1000, 1000.0)),
            timeout: Duration::from_millis(250),
        }
    }
}

struct Router {
    registry: Arc<AssignmentRegistry>,
    metrics: Arc<RequestMetrics>,
}

impl Handler for Router {
    fn handle(&self, request: &HttpRequest) -> HttpResponse {
        match (&request.method, request.path.as_str()) {
            (Method::Post, "/protect") => self.protect(&request.body),
            (Method::Get, "/healthz") => HttpResponse::text(200, "ok\n".to_string()),
            (Method::Get, "/metrics") => HttpResponse::text(200, self.metrics.render()),
            (Method::Get, path) if path.starts_with("/assignment/") => {
                // audit:allow(P1): the guard proved the ASCII prefix, so the slice start is in bounds
                match path["/assignment/".len()..].parse::<u64>() {
                    Ok(user) => {
                        HttpResponse::json(200, self.registry.assignment_for(user).to_json(user))
                    }
                    Err(_) => {
                        HttpResponse::json(400, error_json("assignment ids are unsigned integers"))
                    }
                }
            }
            (Method::Post | Method::Get, _) => HttpResponse::json(404, error_json("unknown route")),
            _ => HttpResponse::json(405, error_json("method not allowed")),
        }
    }
}

impl Router {
    fn protect(&self, body: &str) -> HttpResponse {
        let request = match ProtectRequest::from_json(body) {
            Ok(request) => request,
            Err(reason) => return HttpResponse::json(400, error_json(&reason)),
        };
        let record = match request.record() {
            Ok(record) => record,
            Err(reason) => return HttpResponse::json(400, error_json(&reason)),
        };
        match self.registry.protect(request.user, record) {
            Ok((protected, released)) => {
                HttpResponse::json(200, protect_response_json(request.user, &protected, released))
            }
            Err(Withheld) => HttpResponse::text(204, String::new()),
        }
    }
}

/// A running serving instance: accept loop on a background thread, clean
/// shutdown via [`GeoPrivServer::shutdown`].
pub struct GeoPrivServer {
    addr: SocketAddr,
    unblocker: tiny_http::Unblocker,
    worker: JoinHandle<()>,
    registry: Arc<AssignmentRegistry>,
}

impl GeoPrivServer {
    /// Binds the configured address and starts serving the registry on a
    /// background thread.
    ///
    /// # Errors
    ///
    /// Returns an I/O error when the address cannot be bound.
    pub fn start(
        registry: AssignmentRegistry,
        config: &ServeConfig,
    ) -> std::io::Result<GeoPrivServer> {
        let server = Server::http(&config.addr)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::AddrInUse, e.to_string()))?;
        let addr = server.server_addr();
        let unblocker = server.unblock_handle();
        let metrics = Arc::new(RequestMetrics::new());
        let registry = Arc::new(registry);

        // The fixed middleware order, declared once, outermost first.
        let mut stack =
            MiddlewareStack::new().layer(PanicCatch).layer(MetricsLayer::new(Arc::clone(&metrics)));
        if let Some((burst, per_second)) = config.rate_limit {
            stack = stack.layer(RateLimit::new(burst, per_second));
        }
        // /protect is exempt from 504 replacement: its handler advances the
        // user's session, so a timed-out-but-applied update must still
        // return its real response (a 504 would invite a duplicating retry
        // that desynchronizes the stream from the record sequence).
        let handler = stack
            .layer(Timeout::new(config.timeout).exempt("/protect"))
            .service(Box::new(Router { registry: Arc::clone(&registry), metrics }));

        let worker = std::thread::spawn(move || {
            while let Ok(incoming) = server.recv() {
                let request = HttpRequest {
                    method: *incoming.method(),
                    path: incoming.url().to_string(),
                    body: incoming.body_str().unwrap_or("").to_string(),
                };
                let outgoing = handler.handle(&request);
                let response = Response::from_string(outgoing.body)
                    .with_status_code(outgoing.status)
                    .with_content_type(outgoing.content_type);
                // A peer that vanished mid-response only ends that
                // connection; the accept loop continues.
                let _ = incoming.respond(response);
            }
        });
        Ok(GeoPrivServer { addr, unblocker, worker, registry })
    }

    /// The bound address (with the concrete ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared registry (for in-process inspection).
    pub fn registry(&self) -> &Arc<AssignmentRegistry> {
        &self.registry
    }

    /// Stops the accept loop and joins the worker thread.
    pub fn shutdown(self) {
        self.unblocker.unblock();
        let _ = self.worker.join();
    }
}
