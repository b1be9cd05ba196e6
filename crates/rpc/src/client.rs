//! A blocking HTTP/1.1 JSON-RPC client for the `fairgen-rpc` wire format.
//!
//! One [`RpcClient`] holds one keep-alive connection and issues requests
//! sequentially (JSON-RPC ids are matched per call). The load harness and
//! the loopback tests run many clients, each on its own thread.

use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use fairgen_baselines::TaskSpec;
use fairgen_graph::{Graph, GraphDelta};

use crate::codes;
use crate::http::{read_response, HttpError, HttpLimits, HttpResponse};
use crate::json::{obj, parse, Json, JsonError};
use crate::wire::{
    encode_generate_params, encode_update_params, generate_result_from_json,
    update_result_from_json, GenerateResult, UpdateResult, WireError, WireLimits,
};

/// A structured JSON-RPC error reported by the server.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RpcErrorInfo {
    /// The stable wire code (see [`codes`]).
    pub code: i64,
    /// Human-readable message.
    pub message: String,
    /// The error-kind discriminator from `data.kind`, when present.
    pub kind: Option<String>,
    /// The HTTP status the error arrived under.
    pub http_status: u16,
    /// Seconds the server asked this client to wait before retrying
    /// (the `Retry-After` header 429/503 responses carry), when present.
    pub retry_after: Option<u64>,
}

impl RpcErrorInfo {
    /// Whether the server told this client to come back later rather than
    /// reporting a fault in the request: [`codes::OVERLOADED`] (admission
    /// rejected the request — back off and retry here) and
    /// [`codes::SERVER_CLOSED`] (this instance is draining — retry against
    /// another). Every other code means retrying the same request verbatim
    /// would fail the same way.
    pub fn retryable(&self) -> bool {
        matches!(self.code, codes::OVERLOADED | codes::SERVER_CLOSED)
    }

    /// Whether this is specifically the admission-control rejection
    /// ([`codes::OVERLOADED`], HTTP 429).
    pub fn is_overloaded(&self) -> bool {
        self.code == codes::OVERLOADED
    }
}

/// Everything that can go wrong on a client call.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure (connect, read, write, timeout).
    Io(std::io::Error),
    /// The response was not parseable HTTP.
    Http(HttpError),
    /// The response body was not parseable JSON.
    Json(JsonError),
    /// The response JSON did not match the wire schema.
    Wire(WireError),
    /// The server answered with a structured JSON-RPC error.
    Rpc(RpcErrorInfo),
    /// The response id did not echo the request id.
    IdMismatch {
        /// The id the client sent.
        sent: u64,
        /// What came back, rendered.
        got: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o failure: {e}"),
            ClientError::Http(e) => write!(f, "bad http response: {}", e.describe()),
            ClientError::Json(e) => write!(f, "bad json in response: {e}"),
            ClientError::Wire(e) => write!(f, "response schema mismatch: {e}"),
            ClientError::Rpc(e) => {
                write!(f, "server error {} (http {}): {}", e.code, e.http_status, e.message)
            }
            ClientError::IdMismatch { sent, got } => {
                write!(f, "response id {got} does not match request id {sent}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// Result alias for client calls.
pub type ClientResult<T> = std::result::Result<T, ClientError>;

/// One keep-alive JSON-RPC connection.
///
/// Keep-alive connections go stale: a server may close an idle connection
/// (drain, restart, idle timeout) between two calls, and the client only
/// finds out when the next request hits a dead socket. The client treats
/// that one failure shape — connection lost before **any** response bytes
/// arrived — as retriable: it reconnects to the address it resolved at
/// [`connect`](RpcClient::connect) time and resends the request exactly
/// once. A connection that dies *mid-response* is not retried (the server
/// saw the request; blind resend could double-apply an update).
pub struct RpcClient {
    reader: BufReader<TcpStream>,
    /// Resolved at connect time so a stale keep-alive connection can be
    /// re-established without re-running name resolution.
    addr: SocketAddr,
    timeout: Duration,
    limits: HttpLimits,
    wire: WireLimits,
    next_id: u64,
    /// Sent as `X-FairGen-Tenant` on every request when set.
    tenant: Option<String>,
}

impl RpcClient {
    /// Connects with default timeouts (10 s).
    pub fn connect(addr: impl ToSocketAddrs) -> ClientResult<Self> {
        Self::connect_with(addr, Duration::from_secs(10))
    }

    /// Connects with a specific read/write timeout.
    pub fn connect_with(addr: impl ToSocketAddrs, timeout: Duration) -> ClientResult<Self> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "address resolved empty"))?;
        Ok(RpcClient {
            reader: Self::open(addr, timeout)?,
            addr,
            timeout,
            limits: HttpLimits::default(),
            wire: WireLimits::default(),
            next_id: 1,
            tenant: None,
        })
    }

    fn open(addr: SocketAddr, timeout: Duration) -> ClientResult<BufReader<TcpStream>> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        stream.set_nodelay(true)?;
        Ok(BufReader::new(stream))
    }

    fn reconnect(&mut self) -> ClientResult<()> {
        self.reader = Self::open(self.addr, self.timeout)?;
        Ok(())
    }

    /// Write-side errors that mean "the peer already closed this
    /// connection", as opposed to a fault in the request itself.
    fn stale_pipe(e: &io::Error) -> bool {
        matches!(
            e.kind(),
            io::ErrorKind::BrokenPipe
                | io::ErrorKind::ConnectionReset
                | io::ErrorKind::ConnectionAborted
        )
    }

    /// One write + read over the current connection. The `bool` in the
    /// error says whether the failure is a stale keep-alive connection
    /// (safe to reconnect and resend) or a real fault (it is not).
    fn exchange_once(&mut self, request: &[u8]) -> Result<HttpResponse, (bool, ClientError)> {
        let write = (|| {
            let mut writer = self.reader.get_ref().try_clone()?;
            writer.write_all(request)?;
            writer.flush()
        })();
        if let Err(e) = write {
            let stale = Self::stale_pipe(&e);
            return Err((stale, ClientError::Io(e)));
        }
        match read_response(&mut self.reader, &self.limits) {
            Ok(response) => Ok(response),
            // Clean close before any response bytes: the server dropped
            // the idle connection between requests. Retriable.
            Err(HttpError::Eof) => Err((true, ClientError::Http(HttpError::Eof))),
            // Anything else — including `Io(UnexpectedEof)`, a connection
            // that died mid-response — is not: the request may have been
            // processed.
            Err(HttpError::Io(io)) => Err((false, ClientError::Io(io))),
            Err(other) => Err((false, ClientError::Http(other))),
        }
    }

    /// Sends one request, reconnecting and resending exactly once when the
    /// kept-alive connection turns out to be stale.
    fn exchange(&mut self, request: &[u8]) -> ClientResult<HttpResponse> {
        match self.exchange_once(request) {
            Ok(response) => Ok(response),
            Err((true, _)) => {
                self.reconnect()?;
                self.exchange_once(request).map_err(|(_, e)| e)
            }
            Err((false, e)) => Err(e),
        }
    }

    /// Issues a plain `GET` against the server (e.g. `/metrics`,
    /// `/healthz`) over the same keep-alive connection the RPC calls use,
    /// with the same stale-connection retry. Returns the raw response —
    /// `/healthz` deliberately answers 503 with a JSON body, so a non-2xx
    /// status is data here, not an error.
    pub fn http_get(&mut self, path: &str) -> ClientResult<HttpResponse> {
        let request = format!("GET {path} HTTP/1.1\r\nHost: fairgen\r\n\r\n");
        self.exchange(request.as_bytes())
    }

    /// Bills every subsequent call to `tenant` (sent as the
    /// `X-FairGen-Tenant` header). Pass `None` to go back to the anonymous
    /// default tenant.
    pub fn set_tenant(&mut self, tenant: Option<&str>) {
        self.tenant = tenant.map(str::to_string);
    }

    /// The tenant label calls are currently billed to, if any.
    pub fn tenant(&self) -> Option<&str> {
        self.tenant.as_deref()
    }

    /// Issues one JSON-RPC call and returns the `result` value, or
    /// [`ClientError::Rpc`] when the server answered with an error object.
    pub fn call(&mut self, method: &str, params: Json) -> ClientResult<Json> {
        let id = self.next_id;
        self.next_id += 1;
        let envelope = obj(vec![
            ("jsonrpc", Json::Str("2.0".into())),
            ("id", Json::U64(id)),
            ("method", Json::Str(method.into())),
            ("params", params),
        ]);
        let body = envelope.encode();
        let tenant_header = match &self.tenant {
            Some(tenant) => format!("X-FairGen-Tenant: {tenant}\r\n"),
            None => String::new(),
        };
        let request = format!(
            "POST /rpc HTTP/1.1\r\nHost: fairgen\r\nContent-Type: application/json\r\n\
             {tenant_header}Content-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let response = self.exchange(request.as_bytes())?;
        let value = parse(&response.body).map_err(ClientError::Json)?;
        let got_id = value.get("id").unwrap_or(&Json::Null);
        let id_matches = got_id.as_u64() == Some(id);
        if let Some(error) = value.get("error") {
            let info = RpcErrorInfo {
                code: error.get("code").and_then(Json::as_i64).unwrap_or(0),
                message: error.get("message").and_then(Json::as_str).unwrap_or("").to_string(),
                kind: error
                    .get("data")
                    .and_then(|d| d.get("kind"))
                    .and_then(Json::as_str)
                    .map(str::to_string),
                http_status: response.status,
                retry_after: response.header("retry-after").and_then(|v| v.trim().parse().ok()),
            };
            // A pre-dispatch failure (unparseable body, bad envelope, HTTP
            // reject) legitimately carries a null id — the server never
            // learned ours. Anything else echoing the wrong id belongs to
            // some other call: the connection is desynced, and attributing
            // the error to this request would misreport which call failed.
            let pre_dispatch = matches!(
                info.code,
                codes::PARSE_ERROR | codes::INVALID_REQUEST | codes::HTTP_ERROR
            );
            if !(id_matches || (got_id.is_null() && pre_dispatch)) {
                return Err(ClientError::IdMismatch { sent: id, got: got_id.encode() });
            }
            return Err(ClientError::Rpc(info));
        }
        if !id_matches {
            return Err(ClientError::IdMismatch { sent: id, got: got_id.encode() });
        }
        value.into_field("result").ok_or_else(|| {
            ClientError::Wire(WireError {
                field: "result".into(),
                detail: "missing from a non-error response".into(),
            })
        })
    }

    /// One synthetic draw: `generate(graph, task, fit_seed, sample_seed)`.
    pub fn generate(
        &mut self,
        graph: &Graph,
        task: &TaskSpec,
        fit_seed: u64,
        sample_seed: u64,
    ) -> ClientResult<GenerateResult> {
        let params = encode_generate_params(graph, task, fit_seed, &[sample_seed], false);
        let result = self.call("generate", params)?;
        generate_result_from_json(&result, &self.wire).map_err(ClientError::Wire)
    }

    /// One draw per seed: `generate_batch(graph, task, fit_seed, seeds)`.
    pub fn generate_batch(
        &mut self,
        graph: &Graph,
        task: &TaskSpec,
        fit_seed: u64,
        sample_seeds: &[u64],
    ) -> ClientResult<GenerateResult> {
        let params = encode_generate_params(graph, task, fit_seed, sample_seeds, true);
        let result = self.call("generate_batch", params)?;
        generate_result_from_json(&result, &self.wire).map_err(ClientError::Wire)
    }

    /// Registers an edge delta against a previously-served graph:
    /// `update_graph(graph, task, fit_seed, delta)`. The result says which
    /// fingerprint now serves the updated graph, the cumulative drift, and
    /// whether the server refitted.
    pub fn update_graph(
        &mut self,
        graph: &Graph,
        task: &TaskSpec,
        fit_seed: u64,
        delta: &GraphDelta,
    ) -> ClientResult<UpdateResult> {
        let params = encode_update_params(graph, task, fit_seed, delta);
        let result = self.call("update_graph", params)?;
        update_result_from_json(&result).map_err(ClientError::Wire)
    }

    /// The server's stats snapshot, as raw JSON (shape documented in
    /// [`wire::stats_to_json`](crate::wire::stats_to_json)).
    pub fn stats(&mut self) -> ClientResult<Json> {
        self.call("stats", Json::Obj(Vec::new()))
    }
}

impl std::fmt::Debug for RpcClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RpcClient").field("next_id", &self.next_id).finish()
    }
}
