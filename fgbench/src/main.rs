//! `fgbench`: FairGen served over the `fairgen-rpc` socket, measured end to
//! end and layer by layer.
//!
//! ```text
//! fgbench --workload cold_fit|warm_generate|dedup_wire --seed N --seconds S --trace 0|1
//! fgbench steady [--rounds N] [--seconds S] [--seed FIRST] [--trace 0|1] [--out FILE]
//! fgbench compare BASE.json NEW.json [--bench BENCHMARK.json]
//! ```
//!
//! A run builds its inputs from the seed, sets the served deployment up,
//! drives it closed-loop for the given seconds, checks every answer, and
//! prints each metric by name and unit; its last line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports
//! the end-to-end metrics, `--trace 1` the per-layer ones (see
//! `WORKLOADS.md` beside this crate for what each workload stresses).
//! Run it from the repository root: scratch files go to `fgbench/out/`.

mod layers;
mod ledger;
mod procfs;
mod report;
mod scrape;
mod stats;
mod steady;
mod trace;
mod workload;

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};
use std::time::Instant;

use fairgen_core::{FairGen, TrainedFairGen};
use fairgen_graph::Graph;
use fairgen_metrics::DiscrepancyReport;
use fairgen_par::ThreadPool;

use crate::ledger::Ledger;
use crate::scrape::Scrape;
use crate::stats::{median, overhead_pct, percentile, supported_tail};
use crate::trace::SpanLog;
use crate::workload::{
    model_config, run_phase, Deployment, Job, Kind, Phase, Prepared, Tenant,
};

/// Set-ups per untraced run, each in a process of its own and timed from
/// that process's start; `setup_s` is their median. The extra ones run in
/// child processes after the timed phase: the measured process serves from
/// one server's state only (repeated servers in one process leave
/// allocator arenas behind that made `peak_rss_mb` swing by 20%), and the
/// set-ups are spread over the run rather than caught together in one
/// slow stretch of the host.
const SETUP_REPEATS: usize = 3;
/// Flag of the child mode that only sets up, prints `setup_s` and exits.
const SETUP_ONLY: &str = "--setup-only";
/// Where checkpoints and span logs go, relative to the repository root.
const OUT_DIR: &str = "fgbench/out";

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_only: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let get = |name: &str| {
        args.windows(2)
            .find(|w| w[0] == name)
            .map(|w| w[1].as_str())
            .ok_or_else(|| format!("missing {name}"))
    };
    let workload = get("--workload")?;
    let kind = Kind::parse(workload).ok_or_else(|| format!("unknown workload {workload}"))?;
    let seed = get("--seed")?.parse().map_err(|_| "--seed takes an unsigned integer")?;
    let seconds: f64 = get("--seconds")?.parse().map_err(|_| "--seconds takes a number")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    let setup_only = args.iter().any(|x| x == SETUP_ONLY);
    Ok(Args { kind, seed, seconds, trace, setup_only })
}

fn main() {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("steady") => steady::steady_main(&args[1..]),
        Some("compare") => steady::compare_main(&args[1..]),
        _ => parse_args(&args).and_then(|a| run(started, &a)),
    };
    if let Err(e) = outcome {
        eprintln!("fgbench: {e}");
        std::process::exit(1);
    }
}

fn run(started: Instant, a: &Args) -> Result<(), String> {
    if !Path::new("fgbench/Cargo.toml").is_file() {
        return Err("run from the repository root".into());
    }
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    println!(
        "fgbench {} seed {} for {} s: {} closed-loop client(s), FairGen {:?}, pool {} threads, nproc {}",
        a.kind.name(),
        a.seed,
        a.seconds,
        a.kind.clients(),
        model_config(),
        ThreadPool::global().threads(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    let dir =
        PathBuf::from(OUT_DIR).join(format!("ckpt-{}-{}", a.kind.name(), std::process::id()));
    let (deployment, prep) = Prepared::setup(a.kind, a.seed, dir)?;
    let setup_s = started.elapsed().as_secs_f64();
    if a.setup_only {
        deployment.stop();
        println!("{setup_s}");
        return Ok(());
    }
    let result = if a.trace {
        traced(started, a, &deployment, &prep)
    } else {
        untraced(a, &deployment, &prep, setup_s)
    };
    deployment.stop();
    result
}

/// Runs one more set-up in a child process and returns its `setup_s`.
fn setup_in_child(a: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let output = std::process::Command::new(exe)
        .args(["--workload", a.kind.name(), "--seed", &a.seed.to_string()])
        .args(["--seconds", &a.seconds.to_string(), "--trace", "0", SETUP_ONLY])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("set-up child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    stdout
        .lines()
        .last()
        .and_then(|l| l.trim().parse().ok())
        .filter(|_| output.status.success())
        .ok_or_else(|| format!("set-up child failed ({})", output.status))
}

fn describe(ledger: &Ledger) {
    println!(
        "requests: {} attempted, {} failed, error_rate {:.4} ratio",
        ledger.attempted(),
        ledger.failed(),
        ledger.error_rate()
    );
    for (reason, n) in &ledger.reasons {
        println!("  failed x{n}: {reason}");
    }
}

/// Prints a phase's latency p50 with its sample count, the supported tail
/// and the host's steal time; returns the p50 in ms.
fn latency_line(label: &str, phase: &Phase, ledger: &Ledger) -> f64 {
    let sorted = ledger.sorted_latencies();
    let p50 = percentile(&sorted, 0.5);
    let tail = match supported_tail(&sorted, 10) {
        Some(t) => format!(
            "p{} {:.3} ms ({} beyond) [diagnostic, not gated]",
            100.0 * t.p,
            t.value as f64 / 1e6,
            t.beyond
        ),
        None => "no tail percentile has 10 samples beyond it".into(),
    };
    println!(
        "{label}: {:.3} s, latency p50 {:.3} ms (n={}); {tail}; host steal {:.0} ms",
        phase.elapsed.as_secs_f64(),
        p50.value as f64 / 1e6,
        p50.samples,
        phase.steal_ms
    );
    p50.value as f64 / 1e6
}

/// The in-process oracle: the served answer for each seed equals a fresh
/// fit's one-at-a-time redraw, byte for byte. (A redraw over the wire
/// would come back from the dedup cache and prove nothing.)
fn redraw_check(
    trained: &TrainedFairGen,
    probe: &Job<'_>,
    answer: &[Graph],
    ledger: &mut Ledger,
) {
    for (&seed, served) in probe.seeds.iter().zip(answer) {
        ledger.check(match trained.generate(seed) {
            Ok(g) if &g == served => Ok(()),
            Ok(_) => {
                Err(format!("seed {seed}: one-at-a-time redraw differs from the served answer"))
            }
            Err(e) => Err(format!("seed {seed}: redraw failed: {e}")),
        });
    }
}

fn fit(tenant: &Tenant, fit_seed: u64) -> Result<TrainedFairGen, String> {
    FairGen::new(model_config())
        .train(&tenant.graph, &tenant.task, fit_seed)
        .map_err(|e| format!("in-process fit: {e}"))
}

/// One fit's protected discrepancy: the mean over its delivered graphs.
fn fit_discrepancy(tenant: &Tenant, graphs: &[&Graph]) -> Result<f64, String> {
    let values: Vec<f64> = graphs
        .iter()
        .filter_map(|g| {
            DiscrepancyReport::compute(&tenant.graph, g, tenant.task.protected.as_ref())
                .mean_protected()
        })
        .collect();
    if values.is_empty() {
        return Err("no delivered graph to measure the protected discrepancy on".into());
    }
    Ok(values.iter().sum::<f64>() / values.len() as f64)
}

/// The median over the reference fits, served and in-process, of each
/// fit's protected discrepancy.
fn protected_discrepancy(prep: &Prepared, phase: &Phase) -> Result<f64, String> {
    let mut per_fit = Vec::new();
    for (tenant, graphs) in prep.discrepancy_fits(phase)? {
        per_fit.push(fit_discrepancy(&tenant, &graphs)?);
    }
    println!("protected discrepancy of the served reference fits: {per_fit:.4?}");
    let panel = panel_discrepancies(prep)?;
    if !panel.is_empty() {
        println!("protected discrepancy of the panel fits: {panel:.4?}");
    }
    per_fit.extend(panel);
    Ok(median(&per_fit))
}

/// The panel fits' discrepancies. They depend on the program alone, and
/// fitting the panel takes about half a minute, so they are computed once
/// per build of the benchmark and kept in
/// `fgbench/out/panel-<hash of this executable>.txt`, which
/// `warm_generate` and `dedup_wire` share.
fn panel_discrepancies(prep: &Prepared) -> Result<Vec<f64>, String> {
    let panel = prep.panel();
    if panel.is_empty() {
        return Ok(Vec::new());
    }
    let exe = std::env::current_exe()
        .and_then(std::fs::read)
        .map_err(|e| format!("own executable: {e}"))?;
    let mut hasher = DefaultHasher::new();
    exe.hash(&mut hasher);
    let path = PathBuf::from(OUT_DIR).join(format!("panel-{:016x}.txt", hasher.finish()));
    let cached: Option<Vec<f64>> = std::fs::read_to_string(&path)
        .ok()
        .and_then(|text| text.split_whitespace().map(|v| v.parse().ok()).collect());
    if let Some(values) = cached.filter(|v| v.len() == panel.len()) {
        return Ok(values);
    }
    let mut values = Vec::new();
    for (tenant, fit_seed, seeds) in panel {
        let graphs = fit(tenant, fit_seed)?
            .generate_batch(&seeds)
            .map_err(|e| format!("panel draw: {e}"))?;
        values.push(fit_discrepancy(tenant, &graphs.iter().collect::<Vec<_>>())?);
    }
    // Written whole and then renamed, so a reader never sees part of it.
    let text: Vec<String> = values.iter().map(f64::to_string).collect();
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, text.join("\n"))
        .and_then(|()| std::fs::rename(&tmp, &path))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(values)
}

fn untraced(
    a: &Args,
    deployment: &Deployment,
    prep: &Prepared,
    own_setup_s: f64,
) -> Result<(), String> {
    let phase = run_phase(prep, deployment.addr(), a.seconds, 0, None)?;
    let peak_rss_mb = procfs::peak_rss_mb();
    let mut ledger = phase.ledger.clone();
    if a.kind == Kind::WarmGenerate {
        let (index, answer) = phase.first.first().ok_or("no checked answer to redraw")?;
        let probe = prep.job(*index);
        redraw_check(&fit(&probe.tenant, probe.tenant.fit_seed)?, &probe, answer, &mut ledger);
    }
    let mut setup_s = vec![own_setup_s];
    for _ in 1..SETUP_REPEATS {
        setup_s.push(setup_in_child(a)?);
    }
    let p50_ms = latency_line("timed phase", &phase, &ledger);
    let values = BTreeMap::from([
        ("setup_s", median(&setup_s)),
        ("graphs_per_s", phase.graphs_per_s()),
        ("latency_p50_ms", p50_ms),
        ("cpu_ms_per_graph", phase.cpu_ms_per_graph()),
        ("peak_rss_mb", peak_rss_mb),
        ("protected_discrepancy", protected_discrepancy(prep, &phase)?),
    ]);
    println!("set-ups: {setup_s:.3?} s; {} graphs delivered", ledger.graphs);
    describe(&ledger);
    report::print_table("end_to_end:", &report::E2E, &values);
    println!("  {:<34} {:>14.4} ratio", "error_rate", ledger.error_rate());
    println!(
        "{}",
        report::result_line(&report::E2E, &values, ledger.attempted(), ledger.failed())
    );
    Ok(())
}

fn traced(
    started: Instant,
    a: &Args,
    deployment: &Deployment,
    prep: &Prepared,
) -> Result<(), String> {
    let plain = run_phase(prep, deployment.addr(), a.seconds, 0, None)?;
    let mut client = deployment.connect()?;
    let before = Scrape::take(&mut client)?;
    let log = SpanLog::new(started);
    let traced = run_phase(prep, deployment.addr(), a.seconds, plain.next_index, Some(&log))?;
    let after = Scrape::take(&mut client)?;

    let (index, answer) = traced.first.first().ok_or("no checked answer to probe")?;
    let probe = prep.job(*index);
    let (mut values, trained) =
        layers::measure(&log, &probe, a.kind.expected(), answer, &mut client)?;
    let mut ledger = plain.ledger.clone();
    ledger.merge(traced.ledger.clone());
    redraw_check(&trained, &probe, answer, &mut ledger);

    values.extend(layers::serve_deltas(&before, &after));
    let call = if probe.batch { "client.generate_batch" } else { "client.generate" };
    let mean_call_ms = log.mean(call).ok_or("no traced client call")?.as_secs_f64() * 1e3;
    let codec_ms = [
        "rpc.encode_request_us",
        "rpc.decode_request_us",
        "rpc.encode_response_us",
        "rpc.decode_response_us",
    ]
    .iter()
    .map(|k| values[k] / 1e3)
    .sum::<f64>();
    values.insert("rpc.unaccounted_ms", mean_call_ms - values["serve.total_ms"] - codec_ms);

    let p50_plain = latency_line("untraced phase", &plain, &plain.ledger);
    let p50_traced = latency_line("traced phase", &traced, &traced.ledger);
    let (rate_plain, rate_traced) = (plain.graphs_per_s(), traced.graphs_per_s());
    values.insert("trace.latency_p50_overhead_pct", overhead_pct(p50_plain, p50_traced, true));
    values.insert(
        "trace.graphs_per_s_overhead_pct",
        overhead_pct(rate_plain, rate_traced, false),
    );
    values.insert("trace.requests", traced.ledger.attempted() as f64);
    println!(
        "tracing overhead: graphs_per_s {rate_plain:.4} untraced vs {rate_traced:.4} traced; latency_p50_ms {p50_plain:.3} vs {p50_traced:.3}"
    );

    let spans =
        PathBuf::from(OUT_DIR).join(format!("trace-{}-{}.jsonl", a.kind.name(), a.seed));
    log.write_jsonl(&spans).map_err(|e| format!("{}: {e}", spans.display()))?;
    println!("spans written to {}", spans.display());
    describe(&ledger);
    report::print_table("per_layer:", &report::PER_LAYER, &values);
    println!(
        "{}",
        report::result_line(&report::PER_LAYER, &values, ledger.attempted(), ledger.failed())
    );
    Ok(())
}
