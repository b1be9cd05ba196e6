//! Per-layer measurements for the traced run: direct calls into each
//! crate's public functions on the workload's own inputs, each inside a
//! span, plus the serve layer's stage deltas scraped off `/metrics`.

use std::collections::BTreeMap;
use std::ops::ControlFlow;
use std::time::{Duration, Instant};

use fairgen_core::{checkpoint, CycleReport, FairGen, TrainedFairGen};
use fairgen_graph::{Graph, GraphFingerprint};
use fairgen_nn::{predraw_walks, sample_walk_batch, TransformerConfig, TransformerLm};
use fairgen_par::ThreadPool;
use fairgen_rpc::json::{obj, parse, Json};
use fairgen_rpc::wire::{
    decode_envelope, decode_generate_params, encode_generate_params, generate_result_from_json,
    generate_result_to_json, response_envelope,
};
use fairgen_rpc::{RpcClient, WireLimits};
use fairgen_serve::{fingerprint_with, GenerateResponse, ServedFrom};
use fairgen_walks::{random_walk, ScoreMatrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::scrape::{ratio, Scrape};
use crate::trace::{Span, SpanLog};
use crate::workload::{model_config, Job};

/// Repetitions of a sub-millisecond call (the median is reported).
const FAST_REPS: usize = 21;
/// Repetitions of a call that takes a millisecond or more.
const SLOW_REPS: usize = 5;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Runs `body` inside a span named `name` whose children are the calls
/// `body` times through the log.
fn layer<T>(log: &SpanLog, name: &'static str, body: impl FnOnce(u64) -> T) -> T {
    let id = log.reserve();
    let start = Instant::now();
    let out = body(id);
    log.push(Span { id, name, start, end: Instant::now(), parent: None, request: 0 });
    out
}

/// Multiply-adds of one decode step at 0-based position `pos` of a
/// transformer LM: Q/K/V/O projections (4d²), attention scores and the
/// weighted value sum over `pos + 1` cached positions (2(pos+1)d) and the
/// 4×-wide FFN (8d²) per block, plus the d×V LM head. Norms, activations
/// and the softmax are not counted.
pub fn decode_step_macs(cfg: &TransformerConfig, pos: usize) -> f64 {
    let d = cfg.d_model as f64;
    let block = 4.0 * d * d + 2.0 * (pos as f64 + 1.0) * d + 8.0 * d * d;
    cfg.layers as f64 * block + d * cfg.vocab as f64
}

/// FLOPs (two per multiply-add) of sampling `count` walks of `len` tokens.
pub fn decode_flops(cfg: &TransformerConfig, count: usize, len: usize) -> f64 {
    2.0 * count as f64 * (0..len).map(|pos| decode_step_macs(cfg, pos)).sum::<f64>()
}

/// Measures every layer on the workload's probe request and its delivered
/// answer. Returns the per-layer values (the serve and trace entries are
/// filled in by the caller) and the in-process model fitted on the probe's
/// tenant, which must reproduce the served answer seed for seed.
pub fn measure(
    log: &SpanLog,
    probe: &Job<'_>,
    served_from: ServedFrom,
    answer: &[Graph],
    client: &mut RpcClient,
) -> Result<(BTreeMap<&'static str, f64>, TrainedFairGen), String> {
    let mut out = BTreeMap::new();
    let t = &*probe.tenant;
    let cfg = model_config();
    let limits = WireLimits::default();
    let method = if probe.batch { "generate_batch" } else { "generate" };

    layer(log, "layer.rpc", |id| {
        let (body, enc_req) = log.median_of("rpc.encode_request", id, FAST_REPS, || {
            let params = encode_generate_params(
                &t.graph,
                &t.task,
                t.fit_seed,
                &probe.seeds,
                probe.batch,
            );
            obj(vec![
                ("jsonrpc", Json::Str("2.0".into())),
                ("id", Json::U64(1)),
                ("method", Json::Str(method.into())),
                ("params", params),
            ])
            .encode()
        });
        let (_, dec_req) = log.median_of("rpc.decode_request", id, FAST_REPS, || {
            let v = parse(body.as_bytes()).expect("an encoded request parses");
            let envelope = decode_envelope(&v).expect("an encoded envelope decodes");
            decode_generate_params(&envelope.params, probe.batch, &limits)
                .expect("encoded params decode")
        });
        let response = GenerateResponse {
            fingerprint: GraphFingerprint::from_hex(&t.fingerprint).expect("hex cache key"),
            served_from,
            graphs: answer.to_vec(),
        };
        let (reply, enc_resp) = log.median_of("rpc.encode_response", id, FAST_REPS, || {
            response_envelope(&Json::U64(1), Ok(generate_result_to_json(&response))).encode()
        });
        let (_, dec_resp) = log.median_of("rpc.decode_response", id, FAST_REPS, || {
            let v = parse(reply.as_bytes()).expect("an encoded response parses");
            generate_result_from_json(v.get("result").expect("a result"), &limits)
                .expect("an encoded result decodes")
        });
        out.insert("rpc.request_bytes", body.len() as f64);
        out.insert("rpc.response_bytes", reply.len() as f64);
        out.insert("rpc.encode_request_us", us(enc_req));
        out.insert("rpc.decode_request_us", us(dec_req));
        out.insert("rpc.encode_response_us", us(enc_resp));
        out.insert("rpc.decode_response_us", us(dec_resp));
    });

    layer(log, "layer.graph", |id| {
        let generator = fairgen_core::FairGenGenerator::new(cfg);
        let (_, took) = log.median_of("graph.fingerprint", id, FAST_REPS, || {
            fingerprint_with(&generator, &t.graph, &t.task, t.fit_seed)
        });
        out.insert("graph.fingerprint_us", us(took));
    });

    let seed = probe.seeds[0];
    let trained = layer(log, "layer.core", |id| -> Result<TrainedFairGen, String> {
        let mut stamps = Vec::new();
        let mut observe = |_: &CycleReport| {
            stamps.push(Instant::now());
            ControlFlow::Continue(())
        };
        let start = Instant::now();
        let trained = FairGen::new(cfg)
            .train_observed(&t.graph, &t.task, t.fit_seed, &mut observe)
            .map_err(|e| format!("in-process fit: {e}"))?;
        let end = Instant::now();
        log.record("core.fit", start, end, Some(id), 0);
        let last = *stamps.last().ok_or("the fit reported no cycle")?;
        out.insert("core.fit_ms", ms(end - start));
        out.insert("core.cycle_ms", ms(last - start) / stamps.len() as f64);
        let (_, wide) =
            log.median_of("core.generate", id, SLOW_REPS, || trained.generate(seed));
        let inline = ThreadPool::new(1);
        let (_, narrow) = log.median_of("core.generate_width1", id, SLOW_REPS, || {
            trained.generate_with_pool(seed, &inline)
        });
        out.insert("core.generate_ms", ms(wide));
        out.insert("par.generate_speedup", narrow.as_secs_f64() / wide.as_secs_f64());
        out.insert("par.pool_threads", ThreadPool::global().threads() as f64);
        Ok(trained)
    })?;

    let n = t.graph.n();
    let walks = cfg.num_walks * cfg.gen_multiplier;
    layer(log, "layer.nn", |id| -> Result<(), String> {
        let shape = TransformerConfig {
            vocab: n,
            d_model: cfg.d_model,
            heads: cfg.heads,
            layers: cfg.layers,
            max_len: cfg.walk_len + 2,
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let model = TransformerLm::new(shape, &mut rng);
        let draws = predraw_walks(&mut rng, walks, cfg.walk_len);
        let (sampled, took) = log.median_of("nn.sample_walk_batch", id, SLOW_REPS, || {
            sample_walk_batch(ThreadPool::global(), &model, walks, cfg.walk_len, 1.0, &draws)
        });
        sampled.map_err(|e| format!("decode: {e}"))?;
        let tokens = (walks * cfg.walk_len) as f64;
        out.insert("nn.decode_ns_per_token", took.as_secs_f64() * 1e9 / tokens);
        out.insert(
            "nn.decode_gflop_per_s",
            decode_flops(&shape, walks, cfg.walk_len) / took.as_secs_f64() / 1e9,
        );
        Ok(())
    })?;

    layer(log, "layer.walks", |id| {
        // Structural walks of the input stand in for a trained generator's
        // walks, which mimic them; the count and length are the served ones.
        let mut rng = StdRng::seed_from_u64(seed);
        let corpus: Vec<Vec<usize>> = (0..walks)
            .map(|_| {
                let start = rng.gen_range(0..n) as u32;
                random_walk(&t.graph, start, cfg.walk_len, &mut rng)
                    .into_iter()
                    .map(|v| v as usize)
                    .collect()
            })
            .collect();
        let (scores, counted) = log.median_of("walks.score_matrix", id, SLOW_REPS, || {
            ScoreMatrix::from_token_walks(ThreadPool::global(), n, &corpus)
        });
        let m = t.graph.m();
        let (_, assembled) = log.median_of("walks.assemble", id, SLOW_REPS, || {
            let mut rng = StdRng::seed_from_u64(seed);
            match &t.task.protected {
                Some(s) => {
                    let quota = t
                        .graph
                        .edges()
                        .filter(|&(u, v)| s.contains(u) || s.contains(v))
                        .count();
                    scores.assemble_fair(m, s, quota, &mut rng)
                }
                None => scores.assemble(m, &mut rng),
            }
        });
        out.insert("walks.score_matrix_ms", ms(counted));
        out.insert("walks.assemble_ms", ms(assembled));
    });

    layer(log, "layer.store", |id| -> Result<(), String> {
        let (bytes, encoded) =
            log.median_of("store.encode", id, SLOW_REPS, || checkpoint::to_bytes(&trained));
        let (restored, decoded) =
            log.median_of("store.decode", id, SLOW_REPS, || checkpoint::from_bytes(&bytes));
        restored.map_err(|e| format!("checkpoint round trip: {e}"))?;
        out.insert("store.checkpoint_bytes", bytes.len() as f64);
        out.insert("store.encode_ms", ms(encoded));
        out.insert("store.decode_ms", ms(decoded));
        Ok(())
    })?;

    layer(log, "layer.obs", |id| -> Result<(), String> {
        let (scrape, took) =
            log.median_of("obs.scrape", id, FAST_REPS, || Scrape::take(client));
        out.insert("obs.scrape_ms", ms(took));
        out.insert("obs.exposition_bytes", scrape?.bytes as f64);
        Ok(())
    })?;

    Ok((out, trained))
}

/// The serve layer's figures over a phase, from `/metrics` before and after.
pub fn serve_deltas(before: &Scrape, after: &Scrape) -> BTreeMap<&'static str, f64> {
    let requests = after.stage_count(before, "total") as f64;
    let invocations = after.stage_count(before, "model_invocation") as f64;
    BTreeMap::from([
        ("serve.admission_wait_ms", after.stage_mean_ms(before, "admission_wait")),
        ("serve.queue_wait_ms", after.stage_mean_ms(before, "queue_wait")),
        ("serve.model_invocation_ms", after.stage_mean_ms(before, "model_invocation")),
        ("serve.total_ms", after.stage_mean_ms(before, "total")),
        ("serve.invocations_per_request", ratio(invocations, requests)),
        (
            "serve.dedup_hit_ratio",
            ratio(after.delta(before, "fairgen_dedup_hits_total"), requests),
        ),
        (
            "serve.mean_drain_width",
            ratio(
                after.delta(before, "fairgen_drained_jobs_total"),
                after.delta(before, "fairgen_drains_total"),
            ),
        ),
        ("serve.spills", after.delta(before, "fairgen_registry_spills_total")),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_flops_follow_the_tensor_shapes() {
        let cfg = TransformerConfig { vocab: 100, d_model: 8, heads: 2, layers: 1, max_len: 4 };
        // pos 0: 12·64 + 2·1·8 + 8·100 = 1584 MACs; pos 1: + 16 = 1600.
        assert_eq!(decode_step_macs(&cfg, 0), 1584.0);
        assert_eq!(decode_step_macs(&cfg, 1), 1600.0);
        assert_eq!(decode_flops(&cfg, 3, 2), 2.0 * 3.0 * (1584.0 + 1600.0));
    }
}
