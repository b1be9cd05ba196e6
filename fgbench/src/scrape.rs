//! `GET /metrics` snapshots and the per-stage deltas between two of them.

use fairgen_obs::MetricFamily;
use fairgen_rpc::RpcClient;
use std::collections::BTreeMap;

/// The serve-layer figures the report reads off one scrape: counters
/// summed over shards, and each stage histogram's `(sum_seconds, count)`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Scrape {
    pub counters: BTreeMap<String, f64>,
    pub stages: BTreeMap<String, (f64, u64)>,
    /// Size of the exposition text.
    pub bytes: usize,
}

const STAGE_FAMILY: &str = "fairgen_stage_latency_seconds";

impl Scrape {
    pub fn take(client: &mut RpcClient) -> Result<Scrape, String> {
        let response = client.http_get("/metrics").map_err(|e| format!("scrape: {e}"))?;
        if response.status != 200 {
            return Err(format!("scrape answered {}", response.status));
        }
        let text = String::from_utf8(response.body).map_err(|_| "scrape is not UTF-8")?;
        let families = fairgen_obs::parse(&text).map_err(|e| format!("scrape parse: {e:?}"))?;
        let mut scrape = Scrape { bytes: text.len(), ..Scrape::default() };
        for family in families {
            match family {
                MetricFamily::Counter { name, points, .. } => {
                    scrape.counters.insert(name, points.iter().map(|p| p.value as f64).sum());
                }
                MetricFamily::Gauge { name, points, .. } => {
                    scrape.counters.insert(name, points.iter().map(|p| p.value).sum());
                }
                MetricFamily::Histogram { name, points, .. } if name == STAGE_FAMILY => {
                    for p in points {
                        if let Some((_, stage)) = p.labels.iter().find(|(k, _)| k == "stage") {
                            scrape.stages.insert(stage.clone(), (p.sum, p.count));
                        }
                    }
                }
                MetricFamily::Histogram { .. } => {}
            }
        }
        Ok(scrape)
    }

    /// Change in a counter since `before`.
    pub fn delta(&self, before: &Scrape, name: &str) -> f64 {
        let get = |s: &Scrape| s.counters.get(name).copied().unwrap_or(0.0);
        get(self) - get(before)
    }

    /// Observations of `stage` since `before`.
    pub fn stage_count(&self, before: &Scrape, stage: &str) -> u64 {
        let get = |s: &Scrape| s.stages.get(stage).map_or(0, |v| v.1);
        get(self) - get(before)
    }

    /// Mean of `stage` since `before`, in ms (0 when nothing was observed).
    pub fn stage_mean_ms(&self, before: &Scrape, stage: &str) -> f64 {
        let get = |s: &Scrape| s.stages.get(stage).copied().unwrap_or((0.0, 0));
        let (sum0, n0) = get(before);
        let (sum1, n1) = get(self);
        if n1 == n0 {
            0.0
        } else {
            1000.0 * (sum1 - sum0) / (n1 - n0) as f64
        }
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deltas_and_stage_means_come_from_two_snapshots() {
        let mut before = Scrape::default();
        before.counters.insert("fairgen_dedup_hits_total".into(), 5.0);
        before.stages.insert("total".into(), (1.0, 10));
        let mut after = before.clone();
        after.counters.insert("fairgen_dedup_hits_total".into(), 25.0);
        after.stages.insert("total".into(), (1.5, 30));
        assert_eq!(after.delta(&before, "fairgen_dedup_hits_total"), 20.0);
        assert_eq!(after.stage_count(&before, "total"), 20);
        // 0.5 s over 20 observations = 25 ms each.
        assert!((after.stage_mean_ms(&before, "total") - 25.0).abs() < 1e-9);
        assert_eq!(after.stage_mean_ms(&before, "queue_wait"), 0.0);
        assert_eq!(ratio(20.0, 20.0), 1.0);
        assert_eq!(ratio(0.0, 0.0), 0.0);
    }
}
