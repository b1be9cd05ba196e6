//! Serde-free wire types: the JSON shapes of graphs, tasks, requests, and
//! responses, with hand-written encode/decode on the vendored [`Json`]
//! tree.
//!
//! # Wire format
//!
//! A request is an HTTP `POST` to `/rpc` whose body is a JSON-RPC 2.0
//! envelope:
//!
//! ```json
//! {"jsonrpc": "2.0", "id": 1, "method": "generate", "params": {
//!    "graph": {"n": 6, "edges": [[0,1],[1,2]]},
//!    "task":  {"labeled": [[0,1]], "num_classes": 2,
//!              "protected": {"universe": 6, "members": [0,1,2]}},
//!    "fit_seed": 42, "sample_seed": 7}}
//! ```
//!
//! `generate_batch` takes `sample_seeds: [u64]` instead of `sample_seed`;
//! `stats` takes no params. Success answers carry `result`, failures a
//! structured `error` (`{"code", "message", "data": {"kind"}}`) — see
//! [`codes`] for the code table.

use fairgen_baselines::TaskSpec;
use fairgen_graph::{Graph, GraphDelta, NodeId, NodeSet};
use fairgen_serve::{GenerateResponse, ServedFrom, ServerStats, ShardStats, UpdateOutcome};

use crate::codes;
use crate::json::{obj, Json};

/// Why a structurally-valid JSON value does not decode into the expected
/// wire type. Maps to [`codes::INVALID_PARAMS`] (or
/// [`codes::INVALID_REQUEST`] at the envelope level).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireError {
    /// Dotted path of the offending field (e.g. `params.graph.edges[3]`).
    pub field: String,
    /// What was wrong.
    pub detail: String,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "field `{}`: {}", self.field, self.detail)
    }
}

impl std::error::Error for WireError {}

fn wire_err(field: impl Into<String>, detail: impl Into<String>) -> WireError {
    WireError { field: field.into(), detail: detail.into() }
}

/// Decode-time resource bounds. The scalar fields `n`,
/// `protected.universe`, and `num_classes` drive O(value) allocations when
/// the [`Graph`]/[`NodeSet`]/task are constructed, so without a bound a
/// few-byte request (`{"n": 18446744073709551615, "edges": []}`) would
/// force a huge infallible allocation and abort the process. Every decode
/// validates against these limits first and fails with a typed
/// [`WireError`] (→ [`codes::INVALID_PARAMS`] on the wire) instead.
#[derive(Clone, Copy, Debug)]
pub struct WireLimits {
    /// Maximum graph node count — also bounds `protected.universe` and
    /// `num_classes`, which allocate proportionally downstream.
    pub max_nodes: usize,
    /// Maximum number of edges in one graph.
    pub max_edges: usize,
    /// Maximum byte length of a tenant label (the `tenant` param or the
    /// `X-FairGen-Tenant` header). Labels are cloned into per-tenant
    /// rate-limiter buckets and drop-ring entries, so an unbounded label
    /// would let one request pin arbitrary memory.
    pub max_tenant_bytes: usize,
}

impl Default for WireLimits {
    fn default() -> Self {
        // 4M nodes / 16M edges keeps the largest decode-triggered
        // allocation in the same ballpark as HttpLimits::max_body_bytes.
        WireLimits { max_nodes: 1 << 22, max_edges: 1 << 24, max_tenant_bytes: 128 }
    }
}

/// Extracts the tenant label for a request: the `tenant` param when
/// present, else the `X-FairGen-Tenant` header value, else `None` (the
/// anonymous default tenant). Either source is bounded by
/// [`WireLimits::max_tenant_bytes`] and must be a non-empty string.
pub fn decode_tenant(
    params: &Json,
    header: Option<&str>,
    limits: &WireLimits,
) -> Result<Option<String>, WireError> {
    let (label, field) = match params.get("tenant") {
        Some(Json::Str(s)) => (Some(s.as_str()), "tenant"),
        Some(_) => return Err(wire_err("tenant", "expected a string label")),
        None => (header, "x-fairgen-tenant header"),
    };
    match label {
        None => Ok(None),
        Some("") => Err(wire_err(field, "tenant label must be non-empty")),
        Some(s) if s.len() > limits.max_tenant_bytes => Err(wire_err(
            field,
            format!(
                "tenant label of {} bytes exceeds the server limit of {}",
                s.len(),
                limits.max_tenant_bytes
            ),
        )),
        Some(s) => Ok(Some(s.to_string())),
    }
}

fn bounded(value: usize, limit: usize, field: &str, what: &str) -> Result<usize, WireError> {
    if value > limit {
        return Err(wire_err(
            field,
            format!("{value} exceeds the server limit of {limit} {what}"),
        ));
    }
    Ok(value)
}

fn get_u64(params: &Json, field: &str) -> Result<u64, WireError> {
    params
        .get(field)
        .ok_or_else(|| wire_err(field, "missing"))?
        .as_u64()
        .ok_or_else(|| wire_err(field, "expected an unsigned integer"))
}

fn get_usize(params: &Json, field: &str) -> Result<usize, WireError> {
    usize::try_from(get_u64(params, field)?)
        .map_err(|_| wire_err(field, "does not fit in usize"))
}

// The per-element decoders below return only the detail; their callers
// build the element's field path (`edges[3]`) when, and only when, there
// is an error to report.

fn node_id(v: &Json) -> Result<NodeId, &'static str> {
    let raw = v.as_u64().ok_or("expected an unsigned integer")?;
    NodeId::try_from(raw).map_err(|_| "node id does not fit in u32")
}

fn edge_pair(e: &Json) -> Result<(NodeId, NodeId), &'static str> {
    match e.as_arr().ok_or("expected a [u, v] pair")? {
        [u, v] => Ok((node_id(u)?, node_id(v)?)),
        _ => Err("expected exactly two endpoints"),
    }
}

fn labeled_pair(e: &Json) -> Result<(NodeId, usize), &'static str> {
    match e.as_arr().ok_or("expected a [node, class] pair")? {
        [node, class] => {
            let node = node_id(node)?;
            let class = class.as_u64().ok_or("class must be unsigned")?;
            Ok((node, usize::try_from(class).map_err(|_| "class does not fit in usize")?))
        }
        _ => Err("expected exactly [node, class]"),
    }
}

/// Decodes every element of `items` with `decode`, naming a failing one
/// `field[i]`.
fn elements<T>(
    items: &[Json],
    field: &str,
    decode: impl Fn(&Json) -> Result<T, &'static str>,
) -> Result<Vec<T>, WireError> {
    let mut out = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        out.push(decode(item).map_err(|detail| wire_err(format!("{field}[{i}]"), detail))?);
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Graph
// ---------------------------------------------------------------------------

/// Encodes a graph as `{"n": N, "edges": [[u,v], …]}` (each undirected edge
/// once, `u < v`, ascending — the iteration order of [`Graph::edges`]).
pub fn graph_to_json(g: &Graph) -> Json {
    let mut edges = Vec::with_capacity(g.m());
    edges.extend(
        g.edges().map(|(u, v)| Json::Arr(vec![Json::U64(u as u64), Json::U64(v as u64)])),
    );
    obj(vec![("n", Json::U64(g.n() as u64)), ("edges", Json::Arr(edges))])
}

/// Decodes a graph, validating every node id against `n` and both `n` and
/// the edge count against `limits` (before anything proportional to them
/// is allocated).
pub fn graph_from_json(v: &Json, limits: &WireLimits) -> Result<Graph, WireError> {
    let n = bounded(get_usize(v, "n")?, limits.max_nodes, "n", "nodes")?;
    let edges = edge_pairs(
        v.get("edges").ok_or_else(|| wire_err("edges", "missing"))?,
        "edges",
        limits,
    )?;
    Graph::try_from_edges(n, &edges).map_err(|e| wire_err("edges", e.to_string()))
}

// ---------------------------------------------------------------------------
// TaskSpec
// ---------------------------------------------------------------------------

/// Encodes a task as `{"labeled": [[node, class], …], "num_classes": C,
/// "protected": {"universe": U, "members": […]} | null}`.
pub fn task_to_json(task: &TaskSpec) -> Json {
    let labeled = task
        .labeled
        .iter()
        .map(|&(node, class)| Json::Arr(vec![Json::U64(node as u64), Json::U64(class as u64)]))
        .collect();
    let protected = match &task.protected {
        Some(set) => obj(vec![
            ("universe", Json::U64(set.universe() as u64)),
            (
                "members",
                Json::Arr(set.members().iter().map(|&v| Json::U64(v as u64)).collect()),
            ),
        ]),
        None => Json::Null,
    };
    obj(vec![
        ("labeled", Json::Arr(labeled)),
        ("num_classes", Json::U64(task.num_classes as u64)),
        ("protected", protected),
    ])
}

/// Decodes a task. Structural validation only (ids fit, members are inside
/// the declared universe, `universe`/`num_classes` within `limits`) —
/// semantic validation against the graph happens in [`TaskSpec::validate`]
/// on the serving side.
pub fn task_from_json(v: &Json, limits: &WireLimits) -> Result<TaskSpec, WireError> {
    let raw_labeled = v
        .get("labeled")
        .ok_or_else(|| wire_err("labeled", "missing"))?
        .as_arr()
        .ok_or_else(|| wire_err("labeled", "expected an array of [node, class] pairs"))?;
    let labeled = elements(raw_labeled, "labeled", labeled_pair)?;
    let num_classes =
        bounded(get_usize(v, "num_classes")?, limits.max_nodes, "num_classes", "classes")?;
    let protected = match v.get("protected") {
        None | Some(Json::Null) => None,
        Some(p) => {
            let universe = get_usize(p, "universe")
                .map_err(|_| wire_err("protected.universe", "missing or not unsigned"))?;
            // Bounding also keeps `universe` far below u32::MAX, so the
            // `n as NodeId` inside NodeSet construction cannot truncate.
            let universe = bounded(universe, limits.max_nodes, "protected.universe", "nodes")?;
            let raw = p
                .get("members")
                .ok_or_else(|| wire_err("protected.members", "missing"))?
                .as_arr()
                .ok_or_else(|| wire_err("protected.members", "expected an array"))?;
            let members = elements(raw, "protected.members", |m| {
                let id = node_id(m)?;
                if id as usize >= universe {
                    return Err("member outside the declared universe");
                }
                Ok(id)
            })?;
            Some(NodeSet::from_members(universe, &members))
        }
    };
    Ok(TaskSpec::new(labeled, num_classes, protected))
}

// ---------------------------------------------------------------------------
// RPC envelope
// ---------------------------------------------------------------------------

/// A decoded JSON-RPC request envelope, borrowing `method` and `params`
/// from the parsed body (the params tree carries the whole graph and is
/// never copied).
#[derive(Clone, Debug)]
pub struct RpcRequest<'a> {
    /// The request id, echoed verbatim in the response (`Json::Null` when
    /// the client sent none). Validated to be a scalar before it is copied.
    pub id: Json,
    /// The method name.
    pub method: &'a str,
    /// The params object (`Json::Null` when absent).
    pub params: &'a Json,
}

/// What an absent `params` reads as.
static NO_PARAMS: Json = Json::Null;

/// Decodes and validates the envelope: must be an object with a string
/// `method`; `jsonrpc`, when present, must be `"2.0"`; `id`, when present,
/// must be a string, number, or null (per JSON-RPC 2.0).
pub fn decode_envelope(v: &Json) -> Result<RpcRequest<'_>, WireError> {
    if !matches!(v, Json::Obj(_)) {
        return Err(wire_err("request", "expected a JSON object"));
    }
    if let Some(version) = v.get("jsonrpc") {
        if version.as_str() != Some("2.0") {
            return Err(wire_err("jsonrpc", "expected \"2.0\""));
        }
    }
    let method = v
        .get("method")
        .ok_or_else(|| wire_err("method", "missing"))?
        .as_str()
        .ok_or_else(|| wire_err("method", "expected a string"))?;
    let id = match v.get("id") {
        None => Json::Null,
        Some(id @ (Json::Null | Json::Str(_) | Json::U64(_) | Json::I64(_) | Json::F64(_))) => {
            id.clone()
        }
        Some(_) => return Err(wire_err("id", "expected a string, number, or null")),
    };
    let params = v.get("params").unwrap_or(&NO_PARAMS);
    Ok(RpcRequest { id, method, params })
}

/// The params of `generate` / `generate_batch`, decoded.
#[derive(Clone, Debug)]
pub struct GenerateParams {
    /// The observed graph to fit on.
    pub graph: Graph,
    /// Task metadata.
    pub task: TaskSpec,
    /// The fit seed (cache-key content).
    pub fit_seed: u64,
    /// One synthetic draw per seed.
    pub sample_seeds: Vec<u64>,
}

/// Decodes `generate` params (`sample_seed`, exactly one draw) or
/// `generate_batch` params (`sample_seeds`, any number), per `batch`.
pub fn decode_generate_params(
    params: &Json,
    batch: bool,
    limits: &WireLimits,
) -> Result<GenerateParams, WireError> {
    if !matches!(params, Json::Obj(_)) {
        return Err(wire_err("params", "expected an object"));
    }
    let graph = graph_from_json(
        params.get("graph").ok_or_else(|| wire_err("graph", "missing"))?,
        limits,
    )?;
    let task =
        task_from_json(params.get("task").ok_or_else(|| wire_err("task", "missing"))?, limits)?;
    let fit_seed = get_u64(params, "fit_seed")?;
    let sample_seeds = if batch {
        let raw = params
            .get("sample_seeds")
            .ok_or_else(|| wire_err("sample_seeds", "missing"))?
            .as_arr()
            .ok_or_else(|| wire_err("sample_seeds", "expected an array of unsigned seeds"))?;
        elements(raw, "sample_seeds", |s| s.as_u64().ok_or("expected an unsigned integer"))?
    } else {
        vec![get_u64(params, "sample_seed")?]
    };
    Ok(GenerateParams { graph, task, fit_seed, sample_seeds })
}

/// Encodes the params of a `generate`/`generate_batch` call (client side).
pub fn encode_generate_params(
    graph: &Graph,
    task: &TaskSpec,
    fit_seed: u64,
    sample_seeds: &[u64],
    batch: bool,
) -> Json {
    let mut fields = vec![
        ("graph", graph_to_json(graph)),
        ("task", task_to_json(task)),
        ("fit_seed", Json::U64(fit_seed)),
    ];
    if batch {
        fields.push((
            "sample_seeds",
            Json::Arr(sample_seeds.iter().map(|&s| Json::U64(s)).collect()),
        ));
    } else {
        fields.push(("sample_seed", Json::U64(sample_seeds[0])));
    }
    obj(fields)
}

// ---------------------------------------------------------------------------
// Graph deltas (`update_graph`)
// ---------------------------------------------------------------------------

fn edge_pairs(
    v: &Json,
    field: &str,
    limits: &WireLimits,
) -> Result<Vec<(NodeId, NodeId)>, WireError> {
    let raw = v.as_arr().ok_or_else(|| wire_err(field, "expected an array of [u, v] pairs"))?;
    bounded(raw.len(), limits.max_edges, field, "edges")?;
    elements(raw, field, edge_pair)
}

fn edges_to_json(pairs: &[(NodeId, NodeId)]) -> Json {
    Json::Arr(
        pairs
            .iter()
            .map(|&(u, v)| Json::Arr(vec![Json::U64(u as u64), Json::U64(v as u64)]))
            .collect(),
    )
}

/// The params of `update_graph`, decoded: the pre-delta request content
/// (identifying the model lineage being evolved) plus the edge delta.
#[derive(Clone, Debug)]
pub struct UpdateParams {
    /// The pre-delta observed graph.
    pub graph: Graph,
    /// Task metadata.
    pub task: TaskSpec,
    /// The fit seed.
    pub fit_seed: u64,
    /// Edge insertions/removals to apply.
    pub delta: GraphDelta,
}

/// Decodes `update_graph` params. The delta is
/// `{"insert": [[u,v], …], "remove": [[u,v], …]}`; either list may be
/// absent (empty), both are bounded by [`WireLimits::max_edges`].
pub fn decode_update_params(
    params: &Json,
    limits: &WireLimits,
) -> Result<UpdateParams, WireError> {
    if !matches!(params, Json::Obj(_)) {
        return Err(wire_err("params", "expected an object"));
    }
    let graph = graph_from_json(
        params.get("graph").ok_or_else(|| wire_err("graph", "missing"))?,
        limits,
    )?;
    let task =
        task_from_json(params.get("task").ok_or_else(|| wire_err("task", "missing"))?, limits)?;
    let fit_seed = get_u64(params, "fit_seed")?;
    let delta_json = params.get("delta").ok_or_else(|| wire_err("delta", "missing"))?;
    if !matches!(delta_json, Json::Obj(_)) {
        return Err(wire_err("delta", "expected an object"));
    }
    let mut delta = GraphDelta::empty();
    if let Some(ins) = delta_json.get("insert") {
        delta.insert = edge_pairs(ins, "delta.insert", limits)?;
    }
    if let Some(rem) = delta_json.get("remove") {
        delta.remove = edge_pairs(rem, "delta.remove", limits)?;
    }
    Ok(UpdateParams { graph, task, fit_seed, delta })
}

/// Encodes the params of an `update_graph` call (client side).
pub fn encode_update_params(
    graph: &Graph,
    task: &TaskSpec,
    fit_seed: u64,
    delta: &GraphDelta,
) -> Json {
    obj(vec![
        ("graph", graph_to_json(graph)),
        ("task", task_to_json(task)),
        ("fit_seed", Json::U64(fit_seed)),
        (
            "delta",
            obj(vec![
                ("insert", edges_to_json(&delta.insert)),
                ("remove", edges_to_json(&delta.remove)),
            ]),
        ),
    ])
}

/// Encodes an [`UpdateOutcome`] as `{"old_fingerprint", "new_fingerprint",
/// "root_fingerprint", "drift", "refit"}` (fingerprints as hex strings).
pub fn update_result_to_json(outcome: &UpdateOutcome) -> Json {
    obj(vec![
        ("old_fingerprint", Json::Str(outcome.old_fingerprint.to_hex())),
        ("new_fingerprint", Json::Str(outcome.new_fingerprint.to_hex())),
        ("root_fingerprint", Json::Str(outcome.root_fingerprint.to_hex())),
        ("drift", Json::F64(outcome.drift)),
        ("refit", Json::Bool(outcome.refit)),
    ])
}

/// An `update_graph` result decoded on the client side — fingerprints stay
/// hex strings, like [`GenerateResult::fingerprint`].
#[derive(Clone, Debug, PartialEq)]
pub struct UpdateResult {
    /// Fingerprint of the pre-delta request content.
    pub old_fingerprint: String,
    /// Fingerprint of the post-delta request content (the key for
    /// subsequent `generate` calls).
    pub new_fingerprint: String,
    /// The lineage root the drift was measured against.
    pub root_fingerprint: String,
    /// Cumulative drift relative to the root's base graph.
    pub drift: f64,
    /// Whether the server refitted.
    pub refit: bool,
}

/// Decodes an `update_graph` result.
pub fn update_result_from_json(v: &Json) -> Result<UpdateResult, WireError> {
    let fp = |field: &str| -> Result<String, WireError> {
        Ok(v.get(field)
            .and_then(Json::as_str)
            .ok_or_else(|| wire_err(field, "missing or not a string"))?
            .to_string())
    };
    Ok(UpdateResult {
        old_fingerprint: fp("old_fingerprint")?,
        new_fingerprint: fp("new_fingerprint")?,
        root_fingerprint: fp("root_fingerprint")?,
        drift: v
            .get("drift")
            .and_then(Json::as_f64)
            .ok_or_else(|| wire_err("drift", "missing or not a number"))?,
        refit: v
            .get("refit")
            .and_then(Json::as_bool)
            .ok_or_else(|| wire_err("refit", "missing or not a boolean"))?,
    })
}

/// The wire name of a [`ServedFrom`] outcome. A stale outcome's drift
/// score travels as a separate `drift` field on the result object
/// (attached by [`generate_result_to_json`]), not in the name.
pub fn served_from_str(s: ServedFrom) -> &'static str {
    match s {
        ServedFrom::ColdFit => "cold_fit",
        ServedFrom::Memory => "memory",
        ServedFrom::Checkpoint => "checkpoint",
        ServedFrom::DedupCache => "dedup_cache",
        ServedFrom::Stale { .. } => "stale",
    }
}

/// Parses a wire [`ServedFrom`] name. `"stale"` parses with a zero drift
/// placeholder — [`generate_result_from_json`] restores the real score
/// from the result's `drift` field.
pub fn served_from_parse(s: &str) -> Option<ServedFrom> {
    match s {
        "cold_fit" => Some(ServedFrom::ColdFit),
        "memory" => Some(ServedFrom::Memory),
        "checkpoint" => Some(ServedFrom::Checkpoint),
        "dedup_cache" => Some(ServedFrom::DedupCache),
        "stale" => Some(ServedFrom::Stale { drift: 0.0 }),
        _ => None,
    }
}

/// Encodes a serving response as
/// `{"fingerprint": "<hex>", "served_from": "<outcome>", "graphs": […]}`,
/// plus a `drift` number when the outcome is stale-but-bounded.
pub fn generate_result_to_json(response: &GenerateResponse) -> Json {
    let mut fields = vec![
        ("fingerprint", Json::Str(response.fingerprint.to_hex())),
        ("served_from", Json::Str(served_from_str(response.served_from).into())),
    ];
    if let ServedFrom::Stale { drift } = response.served_from {
        fields.push(("drift", Json::F64(drift)));
    }
    fields.push(("graphs", Json::Arr(response.graphs.iter().map(graph_to_json).collect())));
    obj(fields)
}

/// A `generate`/`generate_batch` result decoded on the client side. The
/// fingerprint stays a hex string — it is an opaque cache key on the wire.
#[derive(Clone, Debug, PartialEq)]
pub struct GenerateResult {
    /// Hex rendering of the serving cache key.
    pub fingerprint: String,
    /// Which serving path answered.
    pub served_from: ServedFrom,
    /// One synthetic graph per requested seed, in request order.
    pub graphs: Vec<Graph>,
}

/// Decodes a `generate`/`generate_batch` result. `limits` bounds the
/// decoded graphs the same way the server bounds request graphs — a
/// misbehaving server cannot DoS the client either.
pub fn generate_result_from_json(
    v: &Json,
    limits: &WireLimits,
) -> Result<GenerateResult, WireError> {
    let fingerprint = v
        .get("fingerprint")
        .and_then(Json::as_str)
        .ok_or_else(|| wire_err("fingerprint", "missing or not a string"))?
        .to_string();
    let mut served_from = v
        .get("served_from")
        .and_then(Json::as_str)
        .and_then(served_from_parse)
        .ok_or_else(|| wire_err("served_from", "missing or unknown outcome"))?;
    if let ServedFrom::Stale { drift } = &mut served_from {
        *drift = v
            .get("drift")
            .ok_or_else(|| wire_err("drift", "missing on a stale outcome"))?
            .as_f64()
            .ok_or_else(|| wire_err("drift", "expected a number"))?;
    }
    let raw = v
        .get("graphs")
        .and_then(Json::as_arr)
        .ok_or_else(|| wire_err("graphs", "missing or not an array"))?;
    let graphs = raw
        .iter()
        .map(|g| graph_from_json(g, limits))
        .collect::<Result<Vec<Graph>, WireError>>()?;
    Ok(GenerateResult { fingerprint, served_from, graphs })
}

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

fn drain_hist_to_json(hist: &[u64]) -> Json {
    Json::Arr(hist.iter().map(|&v| Json::U64(v)).collect())
}

fn shard_stats_to_json(s: &ShardStats) -> Json {
    obj(vec![
        ("queue_depth", Json::U64(s.queue_depth as u64)),
        ("admitted", Json::U64(s.admission.admitted)),
        ("rejected_full", Json::U64(s.admission.rejected_full)),
        ("shed_deadline", Json::U64(s.admission.shed_deadline)),
        ("drains", Json::U64(s.drains)),
        ("max_drain", Json::U64(s.max_drain as u64)),
        ("drained_jobs", Json::U64(s.drained_jobs)),
        ("batched_requests", Json::U64(s.batched_requests)),
        ("drain_width_hist", drain_hist_to_json(&s.drain_hist)),
        ("dedup_hits", Json::U64(s.dedup_hits)),
        ("dedup_inserts", Json::U64(s.dedup_inserts)),
        ("dedup_resident", Json::U64(s.dedup_resident as u64)),
        (
            "registry",
            obj(vec![
                ("requests", Json::U64(s.registry.requests)),
                ("cold_fits", Json::U64(s.registry.cold_fits)),
                ("memory_hits", Json::U64(s.registry.memory_hits)),
                ("checkpoint_loads", Json::U64(s.registry.checkpoint_loads)),
                ("evictions", Json::U64(s.registry.evictions)),
                ("spills", Json::U64(s.registry.spills)),
                ("stale_hits", Json::U64(s.registry.stale_hits)),
                ("delta_updates", Json::U64(s.registry.delta_updates)),
                ("drift_refits", Json::U64(s.registry.drift_refits)),
            ]),
        ),
    ])
}

/// Encodes a whole-server stats snapshot: per-shard counters, the
/// aggregate totals the load harness consumes, server-wide admission
/// counters, and the recent dropped-work ring.
pub fn stats_to_json(stats: &ServerStats) -> Json {
    let dropped = stats
        .dropped
        .iter()
        .map(|d| {
            obj(vec![
                ("tenant", Json::Str(d.tenant.as_str().into())),
                ("fingerprint", Json::Str(d.fingerprint.to_hex())),
                ("reason", Json::Str(d.reason.as_str().into())),
                ("queue_age_nanos", Json::U64(d.queue_age_nanos)),
            ])
        })
        .collect();
    obj(vec![
        ("shards", Json::Arr(stats.per_shard.iter().map(shard_stats_to_json).collect())),
        (
            "totals",
            obj(vec![
                ("requests", Json::U64(stats.requests())),
                ("fits", Json::U64(stats.fits())),
                ("dedup_hits", Json::U64(stats.dedup_hits())),
                ("drains", Json::U64(stats.drains())),
                ("queue_depth", Json::U64(stats.queue_depth() as u64)),
                ("max_drain", Json::U64(stats.max_drain() as u64)),
                ("drained_jobs", Json::U64(stats.drained_jobs())),
                ("batched_requests", Json::U64(stats.batched_requests())),
                ("mean_drain_width", Json::F64(stats.mean_drain_width())),
                ("drain_width_hist", drain_hist_to_json(&stats.drain_hist())),
            ]),
        ),
        (
            "admission",
            obj(vec![
                ("admitted", Json::U64(stats.admission.admitted)),
                ("rejected_full", Json::U64(stats.admission.rejected_full)),
                ("rejected_rate", Json::U64(stats.admission.rejected_rate)),
                ("shed_deadline", Json::U64(stats.admission.shed_deadline)),
                ("dropped_total", Json::U64(stats.admission.dropped_total)),
            ]),
        ),
        (
            "store",
            match &stats.store {
                Some(s) => obj(vec![
                    ("published", Json::U64(s.published)),
                    ("loads", Json::U64(s.loads)),
                    ("corrupt_quarantined", Json::U64(s.corrupt_quarantined)),
                    ("pruned_files", Json::U64(s.pruned_files)),
                    ("pruned_bytes", Json::U64(s.pruned_bytes)),
                    ("tmp_swept", Json::U64(s.tmp_swept)),
                    ("adopted", Json::U64(s.adopted)),
                    ("total_bytes", Json::U64(s.total_bytes)),
                    ("fingerprints", Json::U64(s.fingerprints)),
                    ("generations", Json::U64(s.generations)),
                ]),
                None => Json::Null,
            },
        ),
        ("dropped", Json::Arr(dropped)),
    ])
}

// ---------------------------------------------------------------------------
// Error objects
// ---------------------------------------------------------------------------

/// Builds a JSON-RPC error object: `{"code", "message", "data": {"kind"}}`.
pub fn error_object(code: i64, message: &str, kind: &str) -> Json {
    obj(vec![
        ("code", Json::I64(code)),
        ("message", Json::Str(message.into())),
        ("data", obj(vec![("kind", Json::Str(kind.into()))])),
    ])
}

/// The error object for a typed [`FairGenError`](fairgen_core::error::FairGenError), using the stable
/// [`codes`] table.
pub fn fairgen_error_object(e: &fairgen_core::error::FairGenError) -> Json {
    error_object(codes::wire_code(e), &e.to_string(), codes::kind_name(e))
}

/// Wraps a result or error object into the response envelope, echoing `id`.
pub fn response_envelope(id: &Json, body: Result<Json, Json>) -> Json {
    let (key, value) = match body {
        Ok(result) => ("result", result),
        Err(error) => ("error", error),
    };
    Json::Obj(vec![
        ("jsonrpc".to_string(), Json::Str("2.0".into())),
        ("id".to_string(), id.clone()),
        (key.to_string(), value),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn ring(n: usize) -> Graph {
        let edges: Vec<(NodeId, NodeId)> =
            (0..n).map(|i| (i as NodeId, ((i + 1) % n) as NodeId)).collect();
        Graph::from_edges(n, &edges)
    }

    fn limits() -> WireLimits {
        WireLimits::default()
    }

    #[test]
    fn graph_round_trips() {
        for g in [ring(8), Graph::empty(3), Graph::from_edges(5, &[(0, 4), (1, 3)])] {
            let encoded = graph_to_json(&g).encode();
            let back = graph_from_json(&parse(encoded.as_bytes()).expect("json"), &limits())
                .expect("decode");
            assert_eq!(back, g);
        }
    }

    #[test]
    fn task_round_trips() {
        let task =
            TaskSpec::new(vec![(0, 1), (3, 0)], 2, Some(NodeSet::from_members(6, &[0, 2, 4])));
        let back =
            task_from_json(&parse(task_to_json(&task).encode().as_bytes()).unwrap(), &limits())
                .expect("decode");
        assert_eq!(back.labeled, task.labeled);
        assert_eq!(back.num_classes, task.num_classes);
        assert_eq!(
            back.protected.as_ref().map(|s| s.members().to_vec()),
            task.protected.as_ref().map(|s| s.members().to_vec()),
        );
        let unlabeled = TaskSpec::unlabeled();
        let back = task_from_json(
            &parse(task_to_json(&unlabeled).encode().as_bytes()).unwrap(),
            &limits(),
        )
        .expect("decode");
        assert!(back.protected.is_none());
        assert!(back.labeled.is_empty());
    }

    #[test]
    fn bad_graphs_are_typed_wire_errors() {
        for (text, field_prefix) in [
            (r#"{"edges": []}"#, "n"),
            (r#"{"n": 3}"#, "edges"),
            (r#"{"n": 3, "edges": [[0]]}"#, "edges[0]"),
            (r#"{"n": 3, "edges": [[0, 9]]}"#, "edges"),
            (r#"{"n": 3, "edges": [[0, -1]]}"#, "edges[0]"),
            (r#"{"n": 3, "edges": 7}"#, "edges"),
        ] {
            let v = parse(text.as_bytes()).expect("valid json");
            let err = graph_from_json(&v, &limits()).expect_err(text);
            assert!(err.field.starts_with(field_prefix), "{text}: {err}");
        }
    }

    #[test]
    fn oversized_scalars_are_rejected_before_any_allocation() {
        // Each of these drives an O(value) allocation if it reaches the
        // constructors; a u64::MAX value must die in decode with a typed
        // error, not abort the process.
        let huge = u64::MAX;
        let g = parse(format!(r#"{{"n": {huge}, "edges": []}}"#).as_bytes()).unwrap();
        let err = graph_from_json(&g, &limits()).expect_err("huge n");
        assert_eq!(err.field, "n", "{err}");

        let t = parse(
            format!(
                r#"{{"labeled": [], "num_classes": 0,
                     "protected": {{"universe": {huge}, "members": []}}}}"#
            )
            .as_bytes(),
        )
        .unwrap();
        let err = task_from_json(&t, &limits()).expect_err("huge universe");
        assert_eq!(err.field, "protected.universe", "{err}");

        let t = parse(
            format!(r#"{{"labeled": [], "num_classes": {huge}, "protected": null}}"#)
                .as_bytes(),
        )
        .unwrap();
        let err = task_from_json(&t, &limits()).expect_err("huge num_classes");
        assert_eq!(err.field, "num_classes", "{err}");

        // A tight edge cap trips on the edge-array length.
        let tight = WireLimits { max_edges: 1, ..limits() };
        let g = parse(br#"{"n": 4, "edges": [[0,1],[1,2]]}"#).unwrap();
        let err = graph_from_json(&g, &tight).expect_err("too many edges");
        assert_eq!(err.field, "edges", "{err}");
    }

    #[test]
    fn protected_member_outside_universe_is_rejected() {
        let v = parse(
            br#"{"labeled": [], "num_classes": 0,
                 "protected": {"universe": 3, "members": [5]}}"#,
        )
        .expect("json");
        let err = task_from_json(&v, &limits()).expect_err("member out of range");
        assert!(err.field.contains("members[0]"), "{err}");
    }

    #[test]
    fn envelope_validation() {
        let ok = parse(br#"{"jsonrpc":"2.0","id":3,"method":"stats"}"#).unwrap();
        let req = decode_envelope(&ok).expect("envelope");
        assert_eq!(req.method, "stats");
        assert_eq!(req.id, Json::U64(3));
        assert!(req.params.is_null());

        for bad in [
            r#"[1,2,3]"#,
            r#"{"jsonrpc":"1.0","method":"x"}"#,
            r#"{"jsonrpc":"2.0"}"#,
            r#"{"method": 7}"#,
            r#"{"method":"x","id":[1]}"#,
        ] {
            let v = parse(bad.as_bytes()).unwrap();
            assert!(decode_envelope(&v).is_err(), "{bad}");
        }
    }

    #[test]
    fn generate_params_round_trip() {
        let g = ring(5);
        let task = TaskSpec::unlabeled();
        for batch in [false, true] {
            let seeds = if batch { vec![1, 2, 3] } else { vec![9] };
            let params = encode_generate_params(&g, &task, 42, &seeds, batch);
            let back = decode_generate_params(
                &parse(params.encode().as_bytes()).unwrap(),
                batch,
                &limits(),
            )
            .expect("decode");
            assert_eq!(back.graph, g);
            assert_eq!(back.fit_seed, 42);
            assert_eq!(back.sample_seeds, seeds);
        }
    }

    #[test]
    fn served_from_names_round_trip() {
        for s in [
            ServedFrom::ColdFit,
            ServedFrom::Memory,
            ServedFrom::Checkpoint,
            ServedFrom::DedupCache,
        ] {
            assert_eq!(served_from_parse(served_from_str(s)), Some(s));
        }
        // A stale outcome's name drops the drift — the result object's
        // `drift` field carries it instead (tested below).
        assert_eq!(served_from_str(ServedFrom::Stale { drift: 0.25 }), "stale");
        assert_eq!(served_from_parse("stale"), Some(ServedFrom::Stale { drift: 0.0 }));
        assert_eq!(served_from_parse("warp_drive"), None);
    }

    #[test]
    fn stale_results_carry_drift_through_the_wire() {
        let response = GenerateResponse {
            fingerprint: fairgen_graph::FingerprintBuilder::new().add_u64(9).finish(),
            served_from: ServedFrom::Stale { drift: 0.0625 },
            graphs: vec![ring(4)],
        };
        let encoded = generate_result_to_json(&response).encode();
        let back =
            generate_result_from_json(&parse(encoded.as_bytes()).unwrap(), &limits()).unwrap();
        assert_eq!(back.served_from, ServedFrom::Stale { drift: 0.0625 });
        assert_eq!(back.graphs, response.graphs);

        // A stale outcome without its drift field is a schema error, not a
        // silent zero.
        let stripped = parse(
            br#"{"fingerprint": "00000000000000000000000000000000",
                 "served_from": "stale", "graphs": []}"#,
        )
        .unwrap();
        let err = generate_result_from_json(&stripped, &limits()).expect_err("missing drift");
        assert_eq!(err.field, "drift");
    }

    #[test]
    fn update_params_and_result_round_trip() {
        let g = ring(6);
        let task = TaskSpec::unlabeled();
        let mut delta = GraphDelta::empty();
        delta.insert.push((0, 3));
        delta.remove.push((1, 2));
        let params = encode_update_params(&g, &task, 7, &delta);
        let back = decode_update_params(&parse(params.encode().as_bytes()).unwrap(), &limits())
            .expect("decode");
        assert_eq!(back.graph, g);
        assert_eq!(back.fit_seed, 7);
        assert_eq!(back.delta.insert, delta.insert);
        assert_eq!(back.delta.remove, delta.remove);

        let outcome = UpdateOutcome {
            old_fingerprint: fairgen_graph::FingerprintBuilder::new().add_u64(1).finish(),
            new_fingerprint: fairgen_graph::FingerprintBuilder::new().add_u64(2).finish(),
            root_fingerprint: fairgen_graph::FingerprintBuilder::new().add_u64(3).finish(),
            drift: 0.5,
            refit: true,
        };
        let encoded = update_result_to_json(&outcome).encode();
        let back = update_result_from_json(&parse(encoded.as_bytes()).unwrap()).unwrap();
        assert_eq!(back.old_fingerprint, outcome.old_fingerprint.to_hex());
        assert_eq!(back.new_fingerprint, outcome.new_fingerprint.to_hex());
        assert_eq!(back.root_fingerprint, outcome.root_fingerprint.to_hex());
        assert_eq!(back.drift, 0.5);
        assert!(back.refit);

        // Absent delta lists decode as empty; an oversized one is bounded.
        let sparse = parse(
            br#"{"graph": {"n": 3, "edges": []},
                 "task": {"labeled": [], "num_classes": 0, "protected": null},
                 "fit_seed": 0, "delta": {}}"#,
        )
        .unwrap();
        let back = decode_update_params(&sparse, &limits()).expect("empty delta");
        assert!(back.delta.is_empty());
        let tight = WireLimits { max_edges: 0, ..limits() };
        let err = decode_update_params(
            &parse(
                br#"{"graph": {"n": 3, "edges": []},
                     "task": {"labeled": [], "num_classes": 0, "protected": null},
                     "fit_seed": 0, "delta": {"insert": [[0,1]]}}"#,
            )
            .unwrap(),
            &tight,
        )
        .expect_err("bounded");
        assert_eq!(err.field, "delta.insert");
    }
}
