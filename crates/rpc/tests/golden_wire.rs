//! Golden wire bytes: the exact bytes the client writes for `generate` and
//! `generate_batch`, and the exact bodies the server answers with, pinned
//! as literals. The codec may change how it builds, parses and writes the
//! `Json` tree, but never what crosses the socket: any change to key order,
//! number formatting, escaping or HTTP framing fails here first.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::thread;

use fairgen_baselines::{ErGenerator, TaskSpec};
use fairgen_graph::{FingerprintBuilder, Graph, NodeSet};
use fairgen_rpc::http::write_response;
use fairgen_rpc::json::Json;
use fairgen_rpc::wire::{generate_result_to_json, response_envelope, stats_to_json};
use fairgen_rpc::{handle_rpc_body, RpcClient, RpcConfig, RpcServer, WireLimits};
use fairgen_serve::{
    AdmissionStats, DropReason, DroppedEntry, FairGenServer, GenerateResponse, QueueStats,
    RegistryStats, ServedFrom, ServerConfig, ServerStats, ShardStats, StoreStats, TenantId,
};

fn graph() -> Graph {
    Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 4)])
}

fn task() -> TaskSpec {
    TaskSpec::new(vec![(0, 1), (5, 0)], 2, Some(NodeSet::from_members(6, &[1, 3, 5])))
}

fn assert_golden(name: &str, got: &[u8], want: &str) {
    assert!(
        got == want.as_bytes(),
        "{name}: wire bytes changed\n got: {:?}\nwant: {want:?}",
        String::from_utf8_lossy(got)
    );
}

/// Reads one raw HTTP message (head + `Content-Length` body) off `reader`.
fn read_raw(reader: &mut impl BufRead) -> Vec<u8> {
    let mut raw = Vec::new();
    let mut content_length = 0;
    loop {
        let start = raw.len();
        reader.read_until(b'\n', &mut raw).expect("head line");
        let line = String::from_utf8_lossy(&raw[start..]).to_ascii_lowercase();
        if let Some(v) = line.strip_prefix("content-length:") {
            content_length = v.trim().parse().expect("content length");
        }
        if line == "\r\n" {
            break;
        }
    }
    let start = raw.len();
    raw.resize(start + content_length, 0);
    reader.read_exact(&mut raw[start..]).expect("body");
    raw
}

/// Runs `call` against a canned one-shot server and returns the raw bytes
/// of the request the client wrote.
fn capture_request(call: impl FnOnce(&mut RpcClient)) -> Vec<u8> {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let server = thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        let raw = read_raw(&mut BufReader::new(stream.try_clone().expect("clone")));
        let reply = br#"{"jsonrpc":"2.0","id":1,"result":{"ok":true}}"#;
        write_response(&mut stream, 200, "OK", "application/json", reply, true).expect("reply");
        raw
    });
    let mut client = RpcClient::connect(addr).expect("connect");
    client.set_tenant(Some("acme"));
    call(&mut client);
    server.join().expect("canned server")
}

#[test]
fn generate_request_bytes_are_pinned() {
    let raw = capture_request(|c| {
        // The canned `{"ok":true}` result does not decode as a graph set;
        // only the request bytes matter here.
        let _ = c.generate(&graph(), &task(), 42, u64::MAX);
    });
    assert_golden("generate request", &raw, GENERATE_REQUEST);
}

#[test]
fn generate_batch_request_bytes_are_pinned() {
    let raw = capture_request(|c| {
        let _ = c.generate_batch(&graph(), &task(), u64::MAX, &[0, 7, u64::MAX]);
    });
    assert_golden("generate_batch request", &raw, GENERATE_BATCH_REQUEST);
}

#[test]
fn stale_result_with_drift_is_pinned() {
    let response = GenerateResponse {
        fingerprint: FingerprintBuilder::new().add_u64(9).finish(),
        served_from: ServedFrom::Stale { drift: 0.1 + 0.2 },
        graphs: vec![graph(), Graph::empty(2)],
    };
    let body = response_envelope(&Json::U64(u64::MAX), Ok(generate_result_to_json(&response)));
    assert_golden("stale result", body.encode().as_bytes(), STALE_RESULT);
}

#[test]
fn error_envelopes_are_pinned() {
    let server =
        FairGenServer::new(|| Box::new(ErGenerator), ServerConfig::default()).expect("server");
    let wire = WireLimits::default();
    // An application error: the label names a node outside the graph.
    let body = r#"{"jsonrpc":"2.0","id":"req-é","method":"generate","params":{
        "graph": {"n": 4, "edges": [[0,1],[1,2],[2,3]]},
        "task": {"labeled": [[99, 0]], "num_classes": 1, "protected": null},
        "fit_seed": 0, "sample_seed": 0}}"#;
    let (status, envelope) = handle_rpc_body(&server, false, body.as_bytes(), None, &wire);
    assert_eq!(status, 200);
    assert_golden("application error", envelope.encode().as_bytes(), APP_ERROR);
    // A parse error: null id, the parser's message with its offset.
    let (status, envelope) = handle_rpc_body(&server, false, b"{\"a\":\t}", None, &wire);
    assert_eq!(status, 400);
    assert_golden("parse error", envelope.encode().as_bytes(), PARSE_ERROR);
    // A wire error on a field deep inside the params names its path.
    let body = br#"{"id":-3,"method":"generate","params":{
        "graph": {"n": 4, "edges": [[0,1],[1,"x"]]},
        "task": {"labeled": [], "num_classes": 0, "protected": null},
        "fit_seed": 0, "sample_seed": 0}}"#;
    let (status, envelope) = handle_rpc_body(&server, false, body, None, &wire);
    assert_eq!(status, 400);
    assert_golden("params error", envelope.encode().as_bytes(), PARAMS_ERROR);
}

#[test]
fn unknown_method_reply_is_pinned_over_the_socket() {
    let inner =
        FairGenServer::new(|| Box::new(ErGenerator), ServerConfig::default()).expect("server");
    let rpc = RpcServer::serve(inner, RpcConfig::default()).expect("serve");
    let mut stream = TcpStream::connect(rpc.local_addr()).expect("connect");
    let body = r#"{"jsonrpc":"2.0","id":5,"method":"warp\n","params":{}}"#;
    let request = format!(
        "POST /rpc HTTP/1.1\r\nHost: fairgen\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).expect("write");
    let raw = read_raw(&mut BufReader::new(stream));
    assert_golden("unknown method reply", &raw, UNKNOWN_METHOD_REPLY);
}

#[test]
fn stats_reply_is_pinned() {
    let fp = FingerprintBuilder::new().add_u64(3).finish();
    let shard = |k: u64| ShardStats {
        registry: RegistryStats {
            requests: 10 * k,
            cold_fits: k,
            memory_hits: 9 * k,
            checkpoint_loads: 0,
            evictions: 1,
            spills: 1,
            stale_hits: 2,
            delta_updates: 3,
            drift_refits: 1,
        },
        dedup_hits: 4 * k,
        dedup_inserts: 5,
        dedup_resident: 5,
        drains: 3,
        max_drain: 2 + k as usize,
        drained_jobs: 5,
        batched_requests: 2,
        drain_hist: [1, 1, k, 0, 0, 0],
        queue_depth: k as usize,
        admission: QueueStats { admitted: 11 * k, rejected_full: 1, shed_deadline: 0 },
    };
    let stats = ServerStats {
        per_shard: vec![shard(1), shard(2)],
        admission: AdmissionStats {
            admitted: 33,
            rejected_full: 2,
            rejected_rate: 1,
            shed_deadline: 0,
            dropped_total: 3,
        },
        dropped: vec![DroppedEntry {
            tenant: TenantId::new("t\"1\u{1f}\té\\"),
            fingerprint: fp,
            reason: DropReason::RateLimited,
            queue_age_nanos: u64::MAX,
        }],
        store: Some(StoreStats {
            published: 2,
            loads: 1,
            corrupt_quarantined: 0,
            pruned_files: 1,
            pruned_bytes: 4096,
            tmp_swept: 0,
            adopted: 0,
            total_bytes: 8192,
            fingerprints: 1,
            generations: 2,
        }),
        latency: Default::default(),
    };
    let body = response_envelope(&Json::Str("s".into()), Ok(stats_to_json(&stats)));
    assert_golden("stats reply", body.encode().as_bytes(), STATS_REPLY);
}

const GENERATE_REQUEST: &str = concat!(
    "POST /rpc HTTP/1.1\r\n",
    "Host: fairgen\r\n",
    "Content-Type: application/json\r\n",
    "X-FairGen-Tenant: acme\r\n",
    "Content-Length: 266\r\n",
    "\r\n",
    r#"{"jsonrpc":"2.0","id":1,"method":"generate","params":{"graph":{"n":6,"#,
    r#""edges":[[0,1],[0,5],[1,2],[1,4],[2,3],[3,4],[4,5]]},"task":{"labeled":[[0,"#,
    r#"1],[5,0]],"num_classes":2,"protected":{"universe":6,"members":[1,"#,
    r#"3,5]}},"fit_seed":42,"sample_seed":18446744073709551615}}"#,
);
const GENERATE_BATCH_REQUEST: &str = concat!(
    "POST /rpc HTTP/1.1\r\n",
    "Host: fairgen\r\n",
    "Content-Type: application/json\r\n",
    "X-FairGen-Tenant: acme\r\n",
    "Content-Length: 297\r\n",
    "\r\n",
    r#"{"jsonrpc":"2.0","id":1,"method":"generate_batch","params":{"graph":{"n":6,"#,
    r#""edges":[[0,1],[0,5],[1,2],[1,4],[2,3],[3,4],[4,5]]},"task":{"labeled":[[0,"#,
    r#"1],[5,0]],"num_classes":2,"protected":{"universe":6,"members":[1,"#,
    r#"3,5]}},"fit_seed":18446744073709551615,"sample_seeds":[0,7,18446744073709551615]}}"#,
);
const STALE_RESULT: &str = concat!(
    r#"{"jsonrpc":"2.0","id":18446744073709551615,"result":{"fingerprint":"63cec58f33d865a0"#,
    r#"5fba697f3aa1050c","served_from":"stale","drift":0.30000000000000004,"#,
    r#""graphs":[{"n":6,"edges":[[0,1],[0,5],[1,2],[1,4],[2,3],[3,4],"#,
    r#"[4,5]]},{"n":2,"edges":[]}]}}"#,
);
const APP_ERROR: &str = concat!(
    r#"{"jsonrpc":"2.0","id":"req-é","error":{"code":1003,"message":"node 99 out of range f"#,
    r#"or a graph with 4 vertices","data":{"kind":"NodeOutOfRange"}}}"#,
);
const PARSE_ERROR: &str = concat!(
    r#"{"jsonrpc":"2.0","id":null,"error":{"code":-32700,"message":"unexpected byte 0x7d at"#,
    r#" offset 6","data":{"kind":"Json"}}}"#,
);
const PARAMS_ERROR: &str = concat!(
    r#"{"jsonrpc":"2.0","id":-3,"error":{"code":-32602,"message":"field `edges[1]`: expecte"#,
    r#"d an unsigned integer","data":{"kind":"Params"}}}"#,
);
const UNKNOWN_METHOD_REPLY: &str = concat!(
    "HTTP/1.1 404 Not Found\r\n",
    "Content-Type: application/json\r\n",
    "Content-Length: 182\r\n",
    "Connection: keep-alive\r\n",
    "\r\n",
    r#"{"jsonrpc":"2.0","id":5,"error":{"code":-32601,"message":"unknown method \"warp\\n\""#,
    r#"; this server speaks generate, generate_batch, update_graph,"#,
    r#" and stats","data":{"kind":"Method"}}}"#,
);
const STATS_REPLY: &str = concat!(
    r#"{"jsonrpc":"2.0","id":"s","result":{"shards":[{"queue_depth":1,"#,
    r#""admitted":11,"rejected_full":1,"shed_deadline":0,"drains":3,"#,
    r#""max_drain":3,"drained_jobs":5,"batched_requests":2,"drain_width_hist":[1,"#,
    r#"1,1,0,0,0],"dedup_hits":4,"dedup_inserts":5,"dedup_resident":5,"#,
    r#""registry":{"requests":10,"cold_fits":1,"memory_hits":9,"checkpoint_loads":0,"#,
    r#""evictions":1,"spills":1,"stale_hits":2,"delta_updates":3,"drift_refits":1}},"#,
    r#"{"queue_depth":2,"admitted":22,"rejected_full":1,"shed_deadline":0,"#,
    r#""drains":3,"max_drain":4,"drained_jobs":5,"batched_requests":2,"#,
    r#""drain_width_hist":[1,1,2,0,0,0],"dedup_hits":8,"dedup_inserts":5,"#,
    r#""dedup_resident":5,"registry":{"requests":20,"cold_fits":2,"memory_hits":18,"#,
    r#""checkpoint_loads":0,"evictions":1,"spills":1,"stale_hits":2,"#,
    r#""delta_updates":3,"drift_refits":1}}],"totals":{"requests":42,"#,
    r#""fits":3,"dedup_hits":12,"drains":6,"queue_depth":3,"max_drain":4,"#,
    r#""drained_jobs":10,"batched_requests":4,"mean_drain_width":1.6666666666666667,"#,
    r#""drain_width_hist":[2,2,3,0,0,0]},"admission":{"admitted":33,"#,
    r#""rejected_full":2,"rejected_rate":1,"shed_deadline":0,"dropped_total":3},"#,
    r#""store":{"published":2,"loads":1,"corrupt_quarantined":0,"pruned_files":1,"#,
    r#""pruned_bytes":4096,"tmp_swept":0,"adopted":0,"total_bytes":8192,"#,
    r#""fingerprints":1,"generations":2},"dropped":[{"tenant":"t\"1\u001f\té\\","#,
    r#""fingerprint":"a19ad31e46af150b9133c0a919eec1a0","reason":"rate_limited","#,
    r#""queue_age_nanos":18446744073709551615}]}}"#,
);
