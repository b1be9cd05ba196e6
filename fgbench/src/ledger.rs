//! Request accounting: every attempted request either delivers graphs that
//! pass the output checks or counts as failed, whatever the reason.

use std::collections::BTreeMap;
use std::time::Duration;

/// One client's (or the merged) record of a timed phase.
#[derive(Clone, Debug, Default)]
pub struct Ledger {
    attempted: u64,
    failed: u64,
    /// Graphs delivered by requests that passed every check.
    pub graphs: u64,
    /// Client-observed latency of every attempted request, nanoseconds.
    pub latencies_ns: Vec<u64>,
    /// Failure reason → count.
    pub reasons: BTreeMap<String, u64>,
}

impl Ledger {
    /// Records one request: `outcome` is the number of graphs it delivered
    /// when every check passed, or why it failed (refused, errored, or a
    /// check did not hold).
    pub fn record(&mut self, latency: Duration, outcome: Result<usize, String>) {
        self.attempted += 1;
        self.latencies_ns.push(latency.as_nanos() as u64);
        match outcome {
            Ok(graphs) => self.graphs += graphs as u64,
            Err(reason) => self.fail(reason),
        }
    }

    /// Records a check made outside the timed requests (a spot check): it
    /// counts as attempted, and as failed when it does not hold.
    pub fn check(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(reason) = outcome {
            self.fail(reason);
        }
    }

    fn fail(&mut self, reason: String) {
        self.failed += 1;
        *self.reasons.entry(reason).or_insert(0) += 1;
    }

    pub fn merge(&mut self, other: Ledger) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.graphs += other.graphs;
        self.latencies_ns.extend(other.latencies_ns);
        for (reason, n) in other.reasons {
            *self.reasons.entry(reason).or_insert(0) += n;
        }
    }

    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Failed over attempted (0 when nothing was attempted).
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// Ascending copy of the latencies.
    pub fn sorted_latencies(&self) -> Vec<u64> {
        let mut v = self.latencies_ns.clone();
        v.sort_unstable();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_failed_output_check_counts_as_an_error() {
        let ms = Duration::from_millis(1);
        let mut a = Ledger::default();
        a.record(ms, Ok(4));
        a.record(ms, Err("graph 2 has 103 nodes, expected 100".into()));
        let mut b = Ledger::default();
        b.record(ms * 3, Ok(4));
        b.record(ms, Err("rpc error 1016".into()));
        a.merge(b);
        // A spot check outside the timed phase is attempted work too.
        a.check(Ok(()));
        a.check(Err("seed 7 redraw differs from its batched answer".into()));
        assert_eq!((a.attempted(), a.failed(), a.graphs), (6, 3, 8));
        assert!((a.error_rate() - 0.5).abs() < 1e-12);
        assert_eq!(a.reasons.len(), 3);
        // Failed requests still contribute their latency.
        assert_eq!(a.sorted_latencies(), vec![1_000_000, 1_000_000, 1_000_000, 3_000_000]);
        assert_eq!(Ledger::default().error_rate(), 0.0);
    }
}
