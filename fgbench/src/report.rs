//! The metric tables and the one-line JSON result.

use std::collections::BTreeMap;

use fairgen_rpc::Json;

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const E2E: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("graphs_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("cpu_ms_per_graph", "ms"),
    ("peak_rss_mb", "MiB"),
    ("protected_discrepancy", "ratio"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("rpc.request_bytes", "bytes"),
    ("rpc.response_bytes", "bytes"),
    ("rpc.encode_request_us", "us"),
    ("rpc.decode_request_us", "us"),
    ("rpc.encode_response_us", "us"),
    ("rpc.decode_response_us", "us"),
    ("rpc.unaccounted_ms", "ms"),
    ("graph.fingerprint_us", "us"),
    ("serve.admission_wait_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.model_invocation_ms", "ms"),
    ("serve.total_ms", "ms"),
    ("serve.invocations_per_request", "ratio"),
    ("serve.dedup_hit_ratio", "ratio"),
    ("serve.mean_drain_width", "count"),
    ("serve.spills", "count"),
    ("core.fit_ms", "ms"),
    ("core.cycle_ms", "ms"),
    ("core.generate_ms", "ms"),
    ("nn.decode_ns_per_token", "ns"),
    ("nn.decode_gflop_per_s", "GFLOP/s"),
    ("walks.score_matrix_ms", "ms"),
    ("walks.assemble_ms", "ms"),
    ("store.checkpoint_bytes", "bytes"),
    ("store.encode_ms", "ms"),
    ("store.decode_ms", "ms"),
    ("par.pool_threads", "count"),
    ("par.generate_speedup", "ratio"),
    ("obs.scrape_ms", "ms"),
    ("obs.exposition_bytes", "bytes"),
    ("trace.latency_p50_overhead_pct", "%"),
    ("trace.graphs_per_s_overhead_pct", "%"),
    ("trace.requests", "count"),
];

/// Looks up each metric of `table` in `values` and renders the result
/// line: `{"correct", "attempted", "failed", "metrics": {name: {value,
/// unit}}}`.
///
/// # Panics
///
/// Panics when `values` lacks a metric of the table: every run prints
/// every metric of its table.
pub fn result_line(
    table: &[(&str, &str)],
    values: &BTreeMap<&str, f64>,
    attempted: u64,
    failed: u64,
) -> String {
    let metrics = table
        .iter()
        .map(|&(name, unit)| {
            let value =
                *values.get(name).unwrap_or_else(|| panic!("metric {name} was not measured"));
            let entry = Json::Obj(vec![
                ("value".to_string(), Json::F64(value)),
                ("unit".to_string(), Json::Str(unit.to_string())),
            ]);
            (name.to_string(), entry)
        })
        .collect();
    Json::Obj(vec![
        ("correct".to_string(), Json::Bool(failed == 0)),
        ("attempted".to_string(), Json::U64(attempted)),
        ("failed".to_string(), Json::U64(failed)),
        ("metrics".to_string(), Json::Obj(metrics)),
    ])
    .encode()
}

/// Prints one metric per line, by name and unit.
pub fn print_table(title: &str, table: &[(&str, &str)], values: &BTreeMap<&str, f64>) {
    println!("{title}");
    for &(name, unit) in table {
        if let Some(v) = values.get(name) {
            println!("  {name:<34} {v:>14.4} {unit}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tables here and the metric lists of the repository's
    /// `BENCHMARK.json` name the same metrics, in the same order, with the
    /// same units.
    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let doc = fairgen_rpc::json::parse(text.as_bytes()).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field =
                        |f: &str| m.get(f).and_then(Json::as_str).expect("name and unit");
                    (field("name").to_string(), field("unit").to_string())
                })
                .collect()
        };
        let ours = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(listed("end_to_end"), ours(&E2E));
        assert_eq!(listed("per_layer"), ours(&PER_LAYER));
    }

    #[test]
    fn the_result_line_carries_counts_and_every_metric() {
        let values: BTreeMap<&str, f64> = E2E.iter().map(|&(n, _)| (n, 1.25)).collect();
        let line = result_line(&E2E, &values, 10, 1);
        let v = fairgen_rpc::json::parse(line.as_bytes()).expect("valid JSON");
        assert_eq!(v.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(v.get("attempted").and_then(Json::as_u64), Some(10));
        let setup = v.get("metrics").and_then(|m| m.get("setup_s")).expect("setup_s");
        assert_eq!(setup.get("value").and_then(Json::as_f64), Some(1.25));
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
    }
}
