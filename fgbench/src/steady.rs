//! `steady`: repeated, interleaved runs of every workload, with each
//! metric's median and run-to-run spread; `compare`: per-metric deltas
//! between two such result sets. Both report; neither gates.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Stdio};

use fairgen_rpc::json::{parse, Json};

use crate::stats::{median, spread};
use crate::workload::Kind;

/// Workload → metric → one value per run.
pub type ResultSet = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// The result-set entry that holds one value per run left out because its
/// output checks failed; `compare` marks a workload with such runs invalid.
pub const FAILED_RUNS: &str = "failed_runs";

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.windows(2).find(|w| w[0] == name).map(|w| w[1].as_str())
}

fn number<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    flag(args, name).map_or(Ok(default), |v| v.parse().map_err(|_| format!("bad {name} {v}")))
}

/// `steady [--rounds N] [--seconds S] [--seed FIRST] [--trace 0|1]
/// [--out FILE]`: round `r` runs every workload once with seed `FIRST + r`,
/// the workload order rotated by one each round so that slow drift of the
/// host spreads over all of them alike. A run whose output checks failed
/// is left out of the result set and counted in its `failed_runs` entry.
pub fn steady_main(args: &[String]) -> Result<(), String> {
    let rounds: u64 = number(args, "--rounds", 5)?;
    let seconds: u64 = number(args, "--seconds", 15)?;
    let first_seed: u64 = number(args, "--seed", 1)?;
    let trace = flag(args, "--trace").unwrap_or("0");
    let out = flag(args, "--out").map_or_else(
        || format!("fgbench/out/steady-{}.json", std::process::id()),
        str::to_string,
    );
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mut set = ResultSet::new();
    for round in 0..rounds {
        for i in 0..Kind::ALL.len() {
            let kind = Kind::ALL[(i + round as usize) % Kind::ALL.len()];
            let seed = first_seed + round;
            let output = Command::new(&exe)
                .args(["--workload", kind.name(), "--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string(), "--trace", trace])
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("run {}: {e}", kind.name()))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let last = stdout.lines().last().unwrap_or("");
            let result = parse(last.as_bytes()).map_err(|_| {
                format!("{} seed {seed}: no result line ({})", kind.name(), output.status)
            })?;
            let failed = result.get("failed").and_then(Json::as_u64).unwrap_or(u64::MAX);
            let correct = result.get("correct") == Some(&Json::Bool(true));
            eprintln!("steady: round {round} {} seed {seed}: failed {failed}", kind.name());
            let entry = set.entry(kind.name().to_string()).or_default();
            if !correct || failed > 0 {
                entry.entry(FAILED_RUNS.to_string()).or_default().push(1.0);
                continue;
            }
            let metrics = result.get("metrics").ok_or("result without metrics")?;
            let Json::Obj(fields) = metrics else {
                return Err("metrics is not an object".into());
            };
            for (name, m) in fields {
                let value =
                    m.get("value").and_then(Json::as_f64).ok_or("metric without value")?;
                entry.entry(name.clone()).or_default().push(value);
            }
        }
    }
    print_spreads(&set);
    if let Some(dir) = Path::new(&out).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&out, encode_set(&set)).map_err(|e| format!("{out}: {e}"))?;
    println!("result set written to {out}");
    Ok(())
}

fn print_spreads(set: &ResultSet) {
    println!(
        "{:<15} {:<34} {:>14} {:>9} {:>9} {:>4}",
        "workload", "metric", "median", "IQR/med", "rng/med", "n"
    );
    for (workload, metrics) in set {
        for (name, values) in metrics {
            match spread(values) {
                Some(s) => println!(
                    "{workload:<15} {name:<34} {:>14.4} {:>8.2}% {:>8.2}% {:>4}",
                    s.median,
                    100.0 * s.iqr_share,
                    100.0 * s.range_share,
                    values.len()
                ),
                None => println!(
                    "{workload:<15} {name:<34} {:>14.4} {:>9} {:>9} {:>4}",
                    median(values),
                    "-",
                    "-",
                    values.len()
                ),
            }
        }
    }
}

fn encode_set(set: &ResultSet) -> String {
    Json::Obj(
        set.iter()
            .map(|(w, metrics)| {
                let m = metrics
                    .iter()
                    .map(|(n, v)| {
                        (n.clone(), Json::Arr(v.iter().map(|&x| Json::F64(x)).collect()))
                    })
                    .collect();
                (w.clone(), Json::Obj(m))
            })
            .collect(),
    )
    .encode()
}

fn decode_set(text: &str) -> Result<ResultSet, String> {
    let doc = parse(text.as_bytes()).map_err(|e| format!("result set: {e:?}"))?;
    let Json::Obj(workloads) = doc else { return Err("result set is not an object".into()) };
    let mut set = ResultSet::new();
    for (w, metrics) in workloads {
        let Json::Obj(metrics) = metrics else { return Err(format!("{w}: not an object")) };
        for (name, values) in metrics {
            let values = values
                .as_arr()
                .ok_or_else(|| format!("{w}.{name}: not an array"))?
                .iter()
                .map(|v| v.as_f64().ok_or_else(|| format!("{w}.{name}: not a number")))
                .collect::<Result<Vec<f64>, String>>()?;
            set.entry(w.clone()).or_default().insert(name, values);
        }
    }
    Ok(set)
}

/// A metric's gate as `BENCHMARK.json` states it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Gate {
    pub lower_is_better: bool,
    /// Share of the base median the metric may worsen by; `None` for
    /// per-layer metrics, which carry no bound.
    pub bound: Option<f64>,
}

fn read_gates(path: &str) -> Result<BTreeMap<String, Gate>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = parse(text.as_bytes()).map_err(|e| format!("{path}: {e:?}"))?;
    let mut gates = BTreeMap::new();
    for key in ["end_to_end", "per_layer"] {
        for m in doc.get(key).and_then(Json::as_arr).unwrap_or(&[]) {
            let name = m.get("name").and_then(Json::as_str).ok_or("metric without name")?;
            let lower_is_better = m.get("better").and_then(Json::as_str) == Some("lower");
            let bound = m.get("bound").and_then(Json::as_f64);
            gates.insert(name.to_string(), Gate { lower_is_better, bound });
        }
    }
    Ok(gates)
}

/// The reading of one metric's change between two result sets.
#[derive(Clone, Debug, PartialEq)]
pub struct Delta {
    pub base: f64,
    pub new: f64,
    /// `(new − base) / base`.
    pub change: f64,
    /// The wider of the two sets' quartile spreads, as a share of median.
    pub spread: f64,
    pub verdict: &'static str,
}

/// Compares two sets of runs of one metric against its gate. A change is
/// "unresolved" when the run-to-run spread exceeds the bound; otherwise it
/// is "worse than bound" or "within bound". Metrics without a bound get
/// "no bound".
pub fn delta(base: &[f64], new: &[f64], gate: Gate) -> Delta {
    let (b, n) = (median(base), median(new));
    let change = (n - b) / b;
    let share = |v: &[f64]| spread(v).map_or(f64::INFINITY, |s| s.iqr_share);
    let spread = share(base).max(share(new));
    let worsened = if gate.lower_is_better { change } else { -change };
    let verdict = match gate.bound {
        None => "no bound",
        Some(bound) if spread > bound => "unresolved",
        Some(bound) if worsened > bound => "worse than bound",
        Some(_) => "within bound",
    };
    Delta { base: b, new: n, change, spread, verdict }
}

/// Runs of `workload` left out of `set` because their output checks failed.
fn failed_runs(set: &ResultSet, workload: &str) -> usize {
    set.get(workload).and_then(|m| m.get(FAILED_RUNS)).map_or(0, Vec::len)
}

/// One `(workload, metric, delta)` row per metric present in both sets.
/// Every metric of a workload with failed runs in either set reads
/// "invalid".
pub fn compare_sets(
    base: &ResultSet,
    new: &ResultSet,
    gates: &BTreeMap<String, Gate>,
) -> Vec<(String, String, Gate, Delta)> {
    let mut rows = Vec::new();
    for (workload, metrics) in base {
        let failed = failed_runs(base, workload) + failed_runs(new, workload);
        for (name, a) in metrics.iter().filter(|(name, _)| *name != FAILED_RUNS) {
            let Some(b) = new.get(workload).and_then(|m| m.get(name)) else { continue };
            let gate =
                gates.get(name).copied().unwrap_or(Gate { lower_is_better: true, bound: None });
            let mut d = delta(a, b, gate);
            if failed > 0 {
                d.verdict = "invalid: a set holds failed runs";
            }
            rows.push((workload.clone(), name.clone(), gate, d));
        }
    }
    rows
}

/// `compare BASE.json NEW.json [--bench BENCHMARK.json]`.
pub fn compare_main(args: &[String]) -> Result<(), String> {
    let [base, new, ..] = args else {
        return Err("usage: compare BASE.json NEW.json [--bench BENCHMARK.json]".into());
    };
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let (base, new) = (decode_set(&read(base)?)?, decode_set(&read(new)?)?);
    let gates = read_gates(flag(args, "--bench").unwrap_or("BENCHMARK.json"))?;
    println!(
        "{:<15} {:<34} {:>13} {:>13} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "base", "new", "change", "spread", "bound"
    );
    for (workload, name, gate, d) in compare_sets(&base, &new, &gates) {
        let bound = gate.bound.map_or("-".to_string(), |x| format!("{:.0}%", 100.0 * x));
        println!(
            "{workload:<15} {name:<34} {:>13.4} {:>13.4} {:>+7.2}% {:>7.2}% {bound:>6}  {}",
            d.base,
            d.new,
            100.0 * d.change,
            100.0 * d.spread,
            d.verdict
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: Gate = Gate { lower_is_better: true, bound: Some(0.1) };

    #[test]
    fn compare_reads_direction_bound_and_spread() {
        let base = [10.0, 10.1, 9.9, 10.0, 10.05];
        let slower = [11.5, 11.6, 11.4, 11.5, 11.55];
        assert_eq!(delta(&base, &slower, LOWER).verdict, "worse than bound");
        let higher = Gate { lower_is_better: false, ..LOWER };
        assert_eq!(delta(&base, &slower, higher).verdict, "within bound");
        // A noisy new set cannot resolve a 10% bound.
        let noisy = [8.0, 12.0, 9.0, 13.0, 10.0];
        let d = delta(&base, &noisy, LOWER);
        assert_eq!(d.verdict, "unresolved");
        assert!(d.spread > 0.1);
        let unbounded = Gate { lower_is_better: true, bound: None };
        assert_eq!(delta(&base, &slower, unbounded).verdict, "no bound");
        assert!((delta(&base, &slower, LOWER).change - 0.15).abs() < 1e-12);
    }

    #[test]
    fn failed_runs_make_a_workload_invalid() {
        let mut base = ResultSet::new();
        base.entry("cold_fit".into())
            .or_default()
            .insert("setup_s".into(), vec![1.0, 1.01, 1.0, 1.02]);
        let mut new = base.clone();
        let gates = BTreeMap::from([("setup_s".to_string(), LOWER)]);
        let verdicts = |new: &ResultSet| -> Vec<&'static str> {
            compare_sets(&base, new, &gates).into_iter().map(|r| r.3.verdict).collect()
        };
        assert_eq!(verdicts(&new), vec!["within bound"]);
        new.get_mut("cold_fit").unwrap().insert(FAILED_RUNS.into(), vec![1.0]);
        // The failed-run count is not a metric of its own.
        assert_eq!(verdicts(&new), vec!["invalid: a set holds failed runs"]);
    }

    #[test]
    fn result_sets_round_trip() {
        let mut set = ResultSet::new();
        set.entry("dedup_wire".into()).or_default().insert("setup_s".into(), vec![1.5, 2.25]);
        assert_eq!(decode_set(&encode_set(&set)), Ok(set));
    }
}
