//! The network front-end: an HTTP/1.1 JSON-RPC server over
//! [`FairGenServer`].
//!
//! # Architecture
//!
//! ```text
//!  TCP clients ──▶ accept loop ──▶ one handler thread per connection
//!                                   │  read_request (timeout-bounded)
//!                                   │  parse JSON → envelope → method
//!                                   ▼
//!                            FairGenServer::submit_shared ──▶ shards
//! ```
//!
//! * **Thread-per-connection** with per-socket read/write timeouts; the
//!   handler loop serves any number of keep-alive requests per connection.
//! * **Every failure is a structured JSON error** — HTTP-level rejects
//!   (bad framing, oversized bodies) answer 4xx with a JSON-RPC error
//!   body, application errors cross the wire as their stable
//!   [`codes`] entry. Never a bare 500.
//! * **Graceful drain on shutdown**, mirroring the in-process
//!   `FairGenServer::shutdown` contract: stop accepting → half-close every
//!   connection's read side (in-flight responses still go out) → wait for
//!   handlers to finish → shut the inner server down (close queues, drain
//!   backlog, `spill_all` dirty models). Requests that race the drain get
//!   the typed [`FairGenError::ServerClosed`] wire code.

use std::collections::HashMap;
use std::io::{BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use fairgen_core::error::{FairGenError, Result};
use fairgen_obs::{render, HealthMonitor, HealthPolicy, HealthVerdict};
use fairgen_serve::{Clock, FairGenServer, Lane, SubmitOptions, SystemClock, TenantId};

use crate::codes;
use crate::http::{read_request, write_response_ext, HttpLimits};
use crate::json::{parse, Json};
use crate::metrics::{health_sample, metric_families, METRICS_CONTENT_TYPE};
use crate::wire::{
    decode_envelope, decode_generate_params, decode_tenant, decode_update_params, error_object,
    fairgen_error_object, generate_result_to_json, response_envelope, stats_to_json,
    update_result_to_json, WireError, WireLimits,
};

/// Network front-end policy.
#[derive(Clone)]
pub struct RpcConfig {
    /// Address to bind (`127.0.0.1:0` picks an ephemeral port).
    pub bind_addr: String,
    /// Per-connection socket read timeout: bounds both idle keep-alive
    /// lifetime and a stalled upload.
    pub read_timeout: Duration,
    /// Per-connection socket write timeout.
    pub write_timeout: Duration,
    /// Maximum concurrently-served connections. Each connection costs a
    /// handler thread plus up to [`HttpLimits::max_body_bytes`] of buffer,
    /// so the accept loop answers connections beyond this cap with a typed
    /// 503 and closes them instead of spawning unboundedly.
    pub max_connections: usize,
    /// HTTP parser resource limits.
    pub limits: HttpLimits,
    /// Wire-decode resource bounds (max node/edge counts per request).
    pub wire: WireLimits,
    /// The `Retry-After` advertised on 503s (draining, connection cap,
    /// unhealthy) and on 429s when no token-bucket refill rate is
    /// available to derive a tighter hint from.
    pub retry_after: Duration,
    /// Sustained-window thresholds behind `GET /healthz`.
    pub health: HealthPolicy,
    /// The time source driving health-window transitions. Injectable so
    /// `/healthz` flips are deterministic under a `ManualClock`; share the
    /// admission clock to keep the whole stack on one timeline.
    pub clock: Arc<dyn Clock>,
}

impl Default for RpcConfig {
    fn default() -> Self {
        RpcConfig {
            bind_addr: "127.0.0.1:0".into(),
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(30),
            max_connections: 256,
            limits: HttpLimits::default(),
            wire: WireLimits::default(),
            retry_after: Duration::from_secs(1),
            health: HealthPolicy::default(),
            clock: Arc::new(SystemClock::new()),
        }
    }
}

impl std::fmt::Debug for RpcConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RpcConfig")
            .field("bind_addr", &self.bind_addr)
            .field("read_timeout", &self.read_timeout)
            .field("write_timeout", &self.write_timeout)
            .field("max_connections", &self.max_connections)
            .field("limits", &self.limits)
            .field("wire", &self.wire)
            .field("retry_after", &self.retry_after)
            .field("health", &self.health)
            .field("clock", &self.clock.name())
            .finish()
    }
}

/// Observability state shared by every connection handler: the health
/// monitor (windowed, so it must be one instance per server) and the
/// clock + retry policy the endpoints consult.
pub struct ObsState {
    monitor: Mutex<HealthMonitor>,
    clock: Arc<dyn Clock>,
    retry_after_secs: u64,
}

impl ObsState {
    /// Fresh observability state for one server, per `cfg`'s health
    /// policy, clock, and retry default.
    pub fn new(cfg: &RpcConfig) -> Self {
        ObsState {
            monitor: Mutex::new(HealthMonitor::new(cfg.health)),
            clock: Arc::clone(&cfg.clock),
            retry_after_secs: cfg.retry_after.as_secs().max(1),
        }
    }

    fn evaluate(&self, server: &FairGenServer) -> HealthVerdict {
        let sample = health_sample(&server.stats());
        self.monitor.lock().expect("health monitor").evaluate(self.clock.now_nanos(), sample)
    }
}

impl std::fmt::Debug for ObsState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsState").field("clock", &self.clock.name()).finish()
    }
}

/// Connection bookkeeping shared between the accept loop, the handlers,
/// and shutdown.
struct Shared {
    closing: AtomicBool,
    /// Read-half handles of live connections, for shutdown's half-close.
    conns: Mutex<HashMap<u64, TcpStream>>,
    next_conn: AtomicU64,
    /// Live handler count + condvar — a wait group for the drain.
    active: Mutex<usize>,
    drained: Condvar,
}

impl Shared {
    fn enter(&self, id: u64, stream: &TcpStream) {
        if let Ok(clone) = stream.try_clone() {
            self.conns.lock().expect("conns").insert(id, clone);
        }
        *self.active.lock().expect("active") += 1;
    }

    fn exit(&self, id: u64) {
        self.conns.lock().expect("conns").remove(&id);
        let mut active = self.active.lock().expect("active");
        *active -= 1;
        if *active == 0 {
            self.drained.notify_all();
        }
    }
}

/// The HTTP/1.1 JSON-RPC front-end over a [`FairGenServer`]. Binds on
/// construction, serves until [`shutdown`](RpcServer::shutdown) (also run
/// by `Drop`).
///
/// ```no_run
/// use fairgen_baselines::ErGenerator;
/// use fairgen_rpc::{RpcConfig, RpcServer};
/// use fairgen_serve::{FairGenServer, ServerConfig};
/// # fn demo() -> fairgen_core::error::Result<()> {
/// let inner = FairGenServer::new(|| Box::new(ErGenerator), ServerConfig::default())?;
/// let rpc = RpcServer::serve(inner, RpcConfig::default())?;
/// println!("listening on {}", rpc.local_addr());
/// # Ok(())
/// # }
/// ```
pub struct RpcServer {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    /// `None` after shutdown.
    inner: Option<Arc<FairGenServer>>,
    accept: Option<JoinHandle<()>>,
}

impl RpcServer {
    /// Binds `cfg.bind_addr` and starts serving `server` over it.
    ///
    /// # Errors
    ///
    /// [`FairGenError::Io`] when the address cannot be bound;
    /// [`FairGenError::Internal`] when the accept thread cannot spawn.
    pub fn serve(server: FairGenServer, cfg: RpcConfig) -> Result<Self> {
        let listener = TcpListener::bind(&cfg.bind_addr)?;
        let local_addr = listener.local_addr()?;
        // Non-blocking accept + short parks lets shutdown stop the loop
        // without the self-connect handshake a blocking accept would need.
        listener.set_nonblocking(true)?;
        let shared = Arc::new(Shared {
            closing: AtomicBool::new(false),
            conns: Mutex::new(HashMap::new()),
            next_conn: AtomicU64::new(0),
            active: Mutex::new(0),
            drained: Condvar::new(),
        });
        let inner = Arc::new(server);
        let obs = Arc::new(ObsState::new(&cfg));
        let accept = {
            let shared = Arc::clone(&shared);
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("fairgen-rpc-accept".into())
                .spawn(move || accept_loop(&listener, &shared, &inner, &obs, &cfg))
                .map_err(|e| FairGenError::Internal {
                    detail: format!("failed to spawn the RPC accept thread: {e}"),
                })?
        };
        Ok(RpcServer { local_addr, shared, inner: Some(inner), accept: Some(accept) })
    }

    /// The bound address (with the ephemeral port resolved).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A stats snapshot of the inner serving stack (empty after shutdown).
    pub fn stats(&self) -> fairgen_serve::ServerStats {
        match &self.inner {
            Some(inner) => inner.stats(),
            None => fairgen_serve::ServerStats::default(),
        }
    }

    /// Graceful shutdown: stop accepting, half-close every connection's
    /// read side (responses in flight still complete), wait for handlers
    /// to drain, then shut the inner [`FairGenServer`] down — which closes
    /// its queues, serves its backlog, and spills dirty models. Idempotent;
    /// also run by `Drop`.
    pub fn shutdown(&mut self) {
        self.shared.closing.store(true, Ordering::SeqCst);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        // Half-close: blocked reads see EOF immediately (no read-timeout
        // wait), while a handler mid-request can still write its response.
        for stream in self.shared.conns.lock().expect("conns").values() {
            let _ = stream.shutdown(Shutdown::Read);
        }
        let mut active = self.shared.active.lock().expect("active");
        while *active > 0 {
            active = self.shared.drained.wait(active).expect("active");
        }
        drop(active);
        if let Some(inner) = self.inner.take() {
            // All handler clones are gone once the drain completes, so this
            // unwrap succeeds and runs the in-process graceful shutdown
            // (close → drain → spill_all). Fall back to Drop if not.
            match Arc::try_unwrap(inner) {
                Ok(mut server) => server.shutdown(),
                Err(arc) => drop(arc),
            }
        }
    }
}

impl Drop for RpcServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for RpcServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RpcServer")
            .field("local_addr", &self.local_addr)
            .field("closing", &self.shared.closing.load(Ordering::SeqCst))
            .finish()
    }
}

fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    inner: &Arc<FairGenServer>,
    obs: &Arc<ObsState>,
    cfg: &RpcConfig,
) {
    loop {
        if shared.closing.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((mut stream, _peer)) => {
                if *shared.active.lock().expect("active") >= cfg.max_connections {
                    // At capacity: answer a typed 503 and close instead of
                    // spawning yet another handler thread. `Retry-After`
                    // tells well-behaved clients how long to stay away.
                    let _ = stream.set_write_timeout(Some(cfg.write_timeout));
                    let body = response_envelope(
                        &Json::Null,
                        Err(error_object(
                            codes::HTTP_ERROR,
                            "connection limit reached; retry later",
                            "Http",
                        )),
                    );
                    let _ = write_json_ext(
                        &mut stream,
                        503,
                        &body,
                        true,
                        Some(obs.retry_after_secs),
                    );
                    continue;
                }
                let id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
                // Register under the accept thread, not the handler: a
                // shutdown racing the spawn must still see the connection.
                shared.enter(id, &stream);
                let handler_shared = Arc::clone(shared);
                let inner = Arc::clone(inner);
                let obs = Arc::clone(obs);
                let cfg = cfg.clone();
                let spawned = std::thread::Builder::new()
                    .name(format!("fairgen-rpc-conn-{id}"))
                    .spawn(move || {
                        handle_connection(stream, &inner, &obs, &handler_shared, &cfg);
                        handler_shared.exit(id);
                    });
                if spawned.is_err() {
                    shared.exit(id);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// Serves one connection: any number of keep-alive requests, each answered
/// with a JSON body; closes on transport errors, `Connection: close`, or
/// server drain.
fn handle_connection(
    stream: TcpStream,
    server: &FairGenServer,
    obs: &ObsState,
    shared: &Shared,
    cfg: &RpcConfig,
) {
    let _ = stream.set_read_timeout(Some(cfg.read_timeout));
    let _ = stream.set_write_timeout(Some(cfg.write_timeout));
    let _ = stream.set_nodelay(true);
    let Ok(write_half) = stream.try_clone() else { return };
    let mut writer = write_half;
    let mut reader = BufReader::new(stream);
    loop {
        match read_request(&mut reader, &cfg.limits) {
            Ok(request) => {
                let closing = shared.closing.load(Ordering::SeqCst);
                let reply = respond_http(
                    server,
                    obs,
                    closing,
                    &request.method,
                    &request.target,
                    &request.body,
                    request.header("x-fairgen-tenant"),
                    &cfg.wire,
                );
                let close = closing || !request.keep_alive();
                if write_reply(&mut writer, &reply, close).is_err() || close {
                    return;
                }
            }
            Err(e) => {
                // Framing is unknown after a parse error: answer when the
                // failure has an HTTP status, then close either way.
                if let Some((status, _reason)) = e.status() {
                    let body = response_envelope(
                        &Json::Null,
                        Err(error_object(codes::HTTP_ERROR, &e.describe(), "Http")),
                    );
                    let _ = write_json(&mut writer, status, &body, true);
                }
                return;
            }
        }
    }
}

fn write_json(
    writer: &mut impl Write,
    status: u16,
    body: &Json,
    close: bool,
) -> std::io::Result<()> {
    write_json_ext(writer, status, body, close, None)
}

fn write_json_ext(
    writer: &mut impl Write,
    status: u16,
    body: &Json,
    close: bool,
    retry_after_secs: Option<u64>,
) -> std::io::Result<()> {
    let extra: Vec<(&str, String)> = retry_after_secs
        .map(|secs| vec![("Retry-After", secs.to_string())])
        .unwrap_or_default();
    write_response_ext(
        writer,
        status,
        reason_for(status),
        "application/json",
        body.encode().as_bytes(),
        close,
        &extra,
    )
}

fn write_reply(writer: &mut impl Write, reply: &HttpReply, close: bool) -> std::io::Result<()> {
    let extra: Vec<(&str, String)> = reply
        .retry_after_secs
        .map(|secs| vec![("Retry-After", secs.to_string())])
        .unwrap_or_default();
    write_response_ext(
        writer,
        reply.status,
        reason_for(reply.status),
        reply.content_type,
        &reply.body,
        close,
        &extra,
    )
}

/// One fully-routed HTTP answer: status, content type, body bytes, and the
/// optional `Retry-After` hint the transport writes as a header.
#[derive(Clone, Debug)]
pub struct HttpReply {
    pub status: u16,
    pub content_type: &'static str,
    pub body: Vec<u8>,
    /// `Some(secs)` on backpressure statuses (429/503): how long the
    /// client should stay away.
    pub retry_after_secs: Option<u64>,
}

impl HttpReply {
    fn json(status: u16, body: &Json, retry_after_secs: Option<u64>) -> Self {
        HttpReply {
            status,
            content_type: "application/json",
            body: body.encode().into_bytes(),
            retry_after_secs,
        }
    }
}

/// The full HTTP routing surface: plain-GET observability endpoints
/// (`/metrics`, `/healthz`) next to the JSON-RPC POST path ([`respond`]).
/// Public so tests can drive the exact routing logic without a socket.
///
/// `/metrics` keeps answering while the server drains — a scrape during
/// shutdown is precisely when operators want numbers — and `/healthz`
/// reports draining as unhealthy so load balancers rotate the instance
/// out before the listener disappears.
#[allow(clippy::too_many_arguments)]
pub fn respond_http(
    server: &FairGenServer,
    obs: &ObsState,
    closing: bool,
    method: &str,
    target: &str,
    body: &[u8],
    tenant_header: Option<&str>,
    wire: &WireLimits,
) -> HttpReply {
    let path = target.split('?').next().unwrap_or(target);
    if method == "GET" && path == "/metrics" {
        let text = render(&metric_families(&server.stats()));
        return HttpReply {
            status: 200,
            content_type: METRICS_CONTENT_TYPE,
            body: text.into_bytes(),
            retry_after_secs: None,
        };
    }
    if method == "GET" && path == "/healthz" {
        return healthz_reply(server, obs, closing);
    }
    let (status, envelope) =
        respond(server, closing, method, target, body, tenant_header, wire);
    let retry = match status {
        // Rate rejections can promise a refill-derived wait; queue-full
        // and closure fall back to the configured default. The tightest
        // honest hint for a token bucket is the time to accrue one token.
        429 => server
            .rate_config()
            .and_then(|cfg| cfg.secs_to_accrue(1))
            .or(Some(obs.retry_after_secs)),
        503 => Some(obs.retry_after_secs),
        _ => None,
    };
    HttpReply::json(status, &envelope, retry)
}

/// `GET /healthz`: 200 with `{"status":"ok"}` while healthy, 503 with a
/// JSON reason body once a threshold breach has sustained, 503
/// `"draining"` during shutdown.
fn healthz_reply(server: &FairGenServer, obs: &ObsState, closing: bool) -> HttpReply {
    if closing {
        let body = Json::Obj(vec![
            ("status".into(), Json::Str("draining".into())),
            ("reason".into(), Json::Str("server_closing".into())),
        ]);
        return HttpReply::json(503, &body, Some(obs.retry_after_secs));
    }
    let verdict = obs.evaluate(server);
    let (depth_streak, shed_streak) = verdict.streaks;
    let detail = vec![
        ("queue_depth_streak".to_string(), Json::U64(u64::from(depth_streak))),
        ("shed_rate_streak".to_string(), Json::U64(u64::from(shed_streak))),
        ("window_shed_rate".to_string(), Json::F64(verdict.window_shed_rate)),
    ];
    if verdict.healthy {
        let mut fields = vec![("status".to_string(), Json::Str("ok".into()))];
        fields.extend(detail);
        HttpReply::json(200, &Json::Obj(fields), None)
    } else {
        let reason = verdict.reason.map(|r| r.as_str()).unwrap_or("unhealthy");
        let mut fields = vec![
            ("status".to_string(), Json::Str("unhealthy".into())),
            ("reason".to_string(), Json::Str(reason.into())),
        ];
        fields.extend(detail);
        HttpReply::json(503, &Json::Obj(fields), Some(obs.retry_after_secs))
    }
}

fn reason_for(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Content Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "Error",
    }
}

/// The transport-independent request path: HTTP method/target routing plus
/// [`handle_rpc_body`]. Public so tests can drive the exact server logic
/// without a socket.
pub fn respond(
    server: &FairGenServer,
    closing: bool,
    method: &str,
    target: &str,
    body: &[u8],
    tenant_header: Option<&str>,
    wire: &WireLimits,
) -> (u16, Json) {
    if method != "POST" {
        let err = error_object(
            codes::HTTP_ERROR,
            &format!("method {method} not allowed; POST a JSON-RPC envelope"),
            "Http",
        );
        return (405, response_envelope(&Json::Null, Err(err)));
    }
    let path = target.split('?').next().unwrap_or(target);
    if path != "/" && path != "/rpc" {
        let err = error_object(
            codes::HTTP_ERROR,
            &format!("unknown target {target}; the RPC endpoint is /rpc"),
            "Http",
        );
        return (404, response_envelope(&Json::Null, Err(err)));
    }
    handle_rpc_body(server, closing, body, tenant_header, wire)
}

/// Parses and dispatches one JSON-RPC request body, returning the HTTP
/// status and the response envelope. This is the whole method surface:
/// `generate`, `generate_batch`, `update_graph`, and `stats`.
///
/// `tenant_header` is the raw `X-FairGen-Tenant` value, if the transport
/// saw one; a `tenant` param inside the request body takes precedence, and
/// with neither the request bills the anonymous default tenant.
///
/// With `closing` set (the RPC layer is draining), every method is
/// rejected with the same typed wire code as a post-shutdown in-process
/// submit: [`codes::SERVER_CLOSED`].
pub fn handle_rpc_body(
    server: &FairGenServer,
    closing: bool,
    body: &[u8],
    tenant_header: Option<&str>,
    wire: &WireLimits,
) -> (u16, Json) {
    let value = match parse(body) {
        Ok(v) => v,
        Err(e) => {
            let err = error_object(codes::PARSE_ERROR, &e.to_string(), "Json");
            return (400, response_envelope(&Json::Null, Err(err)));
        }
    };
    let request = match decode_envelope(&value) {
        Ok(r) => r,
        Err(e) => {
            let err = error_object(codes::INVALID_REQUEST, &e.to_string(), "Envelope");
            return (400, response_envelope(&Json::Null, Err(err)));
        }
    };
    if closing {
        let e = FairGenError::ServerClosed;
        return (503, response_envelope(&request.id, Err(fairgen_error_object(&e))));
    }
    match request.method {
        "generate" | "generate_batch" => {
            let batch = request.method == "generate_batch";
            let decoded = decode_generate_params(request.params, batch, wire)
                .and_then(|p| Ok((p, request_tenant(request.params, tenant_header, wire)?)));
            let (params, tenant) = match decoded {
                Ok(decoded) => decoded,
                Err(e) => return params_error(&request.id, &e),
            };
            let opts = SubmitOptions {
                tenant,
                // The method IS the lane: interactive single draws ahead of
                // bulk batches, matching the in-process inference.
                lane: Some(if batch { Lane::Bulk } else { Lane::Interactive }),
                deadline: None,
            };
            let served = server
                .submit_with(
                    Arc::new(params.graph),
                    Arc::new(params.task),
                    params.fit_seed,
                    params.sample_seeds,
                    opts,
                )
                .and_then(|pending| pending.wait());
            served_reply(&request.id, served.as_ref().map(generate_result_to_json))
        }
        "update_graph" => {
            let decoded = decode_update_params(request.params, wire)
                .and_then(|p| Ok((p, request_tenant(request.params, tenant_header, wire)?)));
            let (params, tenant) = match decoded {
                Ok(decoded) => decoded,
                Err(e) => return params_error(&request.id, &e),
            };
            // Updates default to the bulk lane in `submit_update`:
            // structural maintenance never preempts interactive draws.
            let opts = SubmitOptions { tenant, lane: None, deadline: None };
            let outcome = server
                .submit_update(
                    Arc::new(params.graph),
                    Arc::new(params.task),
                    params.fit_seed,
                    params.delta,
                    opts,
                )
                .and_then(|pending| pending.wait());
            served_reply(&request.id, outcome.as_ref().map(update_result_to_json))
        }
        "stats" => (200, response_envelope(&request.id, Ok(stats_to_json(&server.stats())))),
        other => {
            let err = error_object(
                codes::METHOD_NOT_FOUND,
                &format!(
                    "unknown method {other:?}; this server speaks generate, \
                          generate_batch, update_graph, and stats"
                ),
                "Method",
            );
            (404, response_envelope(&request.id, Err(err)))
        }
    }
}

/// The tenant a job request bills: its `tenant` param, else the header,
/// else the anonymous default. Callers decode it after the params, so a
/// request wrong in both reports its params.
fn request_tenant(
    params: &Json,
    tenant_header: Option<&str>,
    wire: &WireLimits,
) -> std::result::Result<TenantId, WireError> {
    Ok(decode_tenant(params, tenant_header, wire)?.map(TenantId::new).unwrap_or_default())
}

fn params_error(id: &Json, e: &WireError) -> (u16, Json) {
    let err = error_object(codes::INVALID_PARAMS, &e.to_string(), "Params");
    (400, response_envelope(id, Err(err)))
}

/// The reply to a served job. Application errors stay HTTP 200 per
/// JSON-RPC-over-HTTP convention — except closure (503, so load balancers
/// drain too) and admission rejection (429, so generic clients and proxies
/// back off).
fn served_reply(id: &Json, served: std::result::Result<Json, &FairGenError>) -> (u16, Json) {
    match served {
        Ok(result) => (200, response_envelope(id, Ok(result))),
        Err(e) => {
            let status = match e {
                FairGenError::ServerClosed => 503,
                FairGenError::Overloaded { .. } => 429,
                _ => 200,
            };
            (status, response_envelope(id, Err(fairgen_error_object(e))))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairgen_baselines::ErGenerator;
    use fairgen_serve::ServerConfig;

    fn inner() -> FairGenServer {
        FairGenServer::new(|| Box::new(ErGenerator), ServerConfig::default()).expect("server")
    }

    fn wire() -> WireLimits {
        WireLimits::default()
    }

    #[test]
    fn non_post_and_bad_target_are_typed_4xx() {
        let server = inner();
        let (status, body) = respond(&server, false, "GET", "/rpc", b"", None, &wire());
        assert_eq!(status, 405);
        assert_eq!(
            body.get("error").and_then(|e| e.get("code")).and_then(Json::as_i64),
            Some(codes::HTTP_ERROR)
        );
        let (status, _) = respond(&server, false, "POST", "/metrics", b"{}", None, &wire());
        assert_eq!(status, 404);
    }

    #[test]
    fn parse_envelope_method_errors_are_typed() {
        let server = inner();
        for (body, code, status) in [
            (&b"not json"[..], codes::PARSE_ERROR, 400),
            (br#"{"id":1}"#, codes::INVALID_REQUEST, 400),
            (br#"{"method":"warp","id":1}"#, codes::METHOD_NOT_FOUND, 404),
            (br#"{"method":"generate","id":1,"params":{}}"#, codes::INVALID_PARAMS, 400),
        ] {
            let (got_status, envelope) = handle_rpc_body(&server, false, body, None, &wire());
            assert_eq!(got_status, status, "{}", String::from_utf8_lossy(body));
            let got = envelope.get("error").and_then(|e| e.get("code")).and_then(Json::as_i64);
            assert_eq!(got, Some(code), "{}", String::from_utf8_lossy(body));
        }
    }

    #[test]
    fn oversized_scalars_are_invalid_params_not_allocations() {
        // `n` and `protected.universe` drive O(value) allocations when the
        // graph/task are constructed; a hostile few-byte request must be
        // rejected in decode with INVALID_PARAMS, never reach an allocator.
        let server = inner();
        for body in [
            &br#"{"method":"generate","id":3,"params":{
                "graph": {"n": 18446744073709551615, "edges": []},
                "task": {"labeled": [], "num_classes": 0, "protected": null},
                "fit_seed": 0, "sample_seed": 0}}"#[..],
            br#"{"method":"generate","id":4,"params":{
                "graph": {"n": 4, "edges": [[0,1]]},
                "task": {"labeled": [], "num_classes": 0,
                         "protected": {"universe": 18446744073709551615, "members": []}},
                "fit_seed": 0, "sample_seed": 0}}"#,
        ] {
            let (status, envelope) = handle_rpc_body(&server, false, body, None, &wire());
            assert_eq!(status, 400, "{}", String::from_utf8_lossy(body));
            assert_eq!(
                envelope.get("error").and_then(|e| e.get("code")).and_then(Json::as_i64),
                Some(codes::INVALID_PARAMS),
                "{}",
                String::from_utf8_lossy(body)
            );
        }
    }

    #[test]
    fn closing_and_closed_paths_share_the_server_closed_code() {
        // The drain flag and an actually-shut-down inner server must be
        // indistinguishable on the wire: one typed code, one status.
        let body = br#"{"method":"stats","id":7}"#;
        let server = inner();
        let (status, envelope) = handle_rpc_body(&server, true, body, None, &wire());
        assert_eq!(status, 503);
        assert_eq!(
            envelope.get("error").and_then(|e| e.get("code")).and_then(Json::as_i64),
            Some(codes::SERVER_CLOSED),
        );
        assert_eq!(envelope.get("id").and_then(Json::as_u64), Some(7));

        let mut shut = inner();
        shut.shutdown();
        let gen_body = br#"{"method":"generate","id":8,"params":{
            "graph": {"n": 4, "edges": [[0,1],[1,2],[2,3]]},
            "task": {"labeled": [], "num_classes": 0, "protected": null},
            "fit_seed": 1, "sample_seed": 2}}"#;
        let (status, envelope) = handle_rpc_body(&shut, false, gen_body, None, &wire());
        assert_eq!(status, 503);
        assert_eq!(
            envelope.get("error").and_then(|e| e.get("code")).and_then(Json::as_i64),
            Some(codes::SERVER_CLOSED),
            "post-shutdown submit must surface the same wire code"
        );
    }

    #[test]
    fn generate_round_trips_against_the_inner_server() {
        let server = inner();
        let body = br#"{"jsonrpc":"2.0","method":"generate","id":1,"params":{
            "graph": {"n": 6, "edges": [[0,1],[1,2],[2,3],[3,4],[4,5],[5,0]]},
            "task": {"labeled": [], "num_classes": 0, "protected": null},
            "fit_seed": 42, "sample_seed": 7}}"#;
        let (status, envelope) = handle_rpc_body(&server, false, body, None, &wire());
        assert_eq!(status, 200, "{envelope:?}");
        let result = envelope.get("result").expect("result");
        let decoded = crate::wire::generate_result_from_json(result, &wire()).expect("decode");
        assert_eq!(decoded.graphs.len(), 1);
        // Oracle: the same request straight through the in-process API.
        let g = fairgen_graph::Graph::from_edges(
            6,
            &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)],
        );
        let direct = server
            .handle(&g, &fairgen_baselines::TaskSpec::unlabeled(), 42, vec![7])
            .expect("direct");
        assert_eq!(decoded.graphs[0], direct.graphs[0]);
        assert_eq!(decoded.fingerprint, direct.fingerprint.to_hex());
    }

    #[test]
    fn app_errors_cross_as_stable_codes() {
        let server = inner();
        // Label on a node outside the graph → NodeOutOfRange, code 1003.
        let body = br#"{"method":"generate","id":2,"params":{
            "graph": {"n": 4, "edges": [[0,1],[1,2],[2,3]]},
            "task": {"labeled": [[99, 0]], "num_classes": 1, "protected": null},
            "fit_seed": 0, "sample_seed": 0}}"#;
        let (status, envelope) = handle_rpc_body(&server, false, body, None, &wire());
        assert_eq!(status, 200);
        let error = envelope.get("error").expect("error object");
        assert_eq!(error.get("code").and_then(Json::as_i64), Some(codes::NODE_OUT_OF_RANGE));
        let kind = error.get("data").and_then(|d| d.get("kind")).and_then(Json::as_str);
        assert_eq!(kind, Some("NodeOutOfRange"));
    }

    #[test]
    fn stats_method_reports_totals() {
        let server = inner();
        let g = fairgen_graph::Graph::from_edges(4, &[(0, 1), (1, 2)]);
        server
            .handle(&g, &fairgen_baselines::TaskSpec::unlabeled(), 3, vec![1])
            .expect("serve");
        let (status, envelope) =
            handle_rpc_body(&server, false, br#"{"method":"stats"}"#, None, &wire());
        assert_eq!(status, 200);
        let totals = envelope.get("result").and_then(|r| r.get("totals")).expect("totals");
        assert_eq!(totals.get("requests").and_then(Json::as_u64), Some(1));
        assert_eq!(totals.get("fits").and_then(Json::as_u64), Some(1));
        assert!(totals.get("queue_depth").and_then(Json::as_u64).is_some());
        assert!(totals.get("drains").and_then(Json::as_u64).is_some());
    }
}
