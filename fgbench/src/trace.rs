//! Spans recorded by the benchmark's own code around each client call and
//! each direct call into a layer. They are kept in memory and written out
//! once, when the run ends; nothing inside the program is instrumented.

use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// The request (or layer measurement) the span belongs to.
    pub request: u64,
}

pub struct SpanLog {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl SpanLog {
    pub fn new(epoch: Instant) -> SpanLog {
        SpanLog { epoch, next_id: AtomicU64::new(0), spans: Mutex::new(Vec::new()) }
    }

    /// Reserves an id, for a parent span whose children finish first.
    pub fn reserve(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a finished span under a reserved id.
    pub fn push(&self, span: Span) {
        self.spans.lock().expect("span log lock").push(span);
    }

    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<u64>,
        request: u64,
    ) -> u64 {
        let id = self.reserve();
        self.push(Span { id, name, start, end, parent, request });
        id
    }

    /// Runs `f` `reps` times, each inside a span under `parent`, and
    /// returns the last result with the median duration.
    pub fn median_of<T>(
        &self,
        name: &'static str,
        parent: u64,
        reps: usize,
        mut f: impl FnMut() -> T,
    ) -> (T, Duration) {
        let mut times = Vec::with_capacity(reps);
        let mut last = None;
        for rep in 0..reps {
            let start = Instant::now();
            let out = std::hint::black_box(f());
            let end = Instant::now();
            self.record(name, start, end, Some(parent), rep as u64);
            times.push(end - start);
            last = Some(out);
        }
        times.sort_unstable();
        (last.expect("at least one repetition"), times[times.len() / 2])
    }

    /// Mean duration of every span named `name`.
    pub fn mean(&self, name: &str) -> Option<Duration> {
        let spans = self.spans.lock().expect("span log lock");
        let durations: Vec<Duration> =
            spans.iter().filter(|s| s.name == name).map(|s| s.end - s.start).collect();
        let n = durations.len() as u32;
        (n > 0).then(|| durations.iter().sum::<Duration>() / n)
    }

    /// Writes every span as one JSON object per line, times in µs since
    /// the run started.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span log lock");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let us = |t: Instant| (t - self.epoch).as_secs_f64() * 1e6;
        for s in spans.iter() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{},\"request\":{}}}",
                s.id,
                s.name,
                us(s.start),
                us(s.end),
                parent,
                s.request
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_keep_their_parent_and_durations() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let log = SpanLog::new(t0);
        let parent = log.reserve();
        log.record("child", at(10), at(30), Some(parent), 0);
        log.record("child", at(20), at(40), Some(parent), 1);
        log.push(Span {
            id: parent,
            name: "layer",
            start: at(0),
            end: at(100),
            parent: None,
            request: 0,
        });
        assert_eq!(log.mean("child"), Some(Duration::from_millis(20)));
        assert_eq!(log.mean("absent"), None);
        let spans = log.spans.lock().expect("span log lock");
        assert!(spans.iter().filter(|s| s.name == "child").all(|s| s.parent == Some(parent)));
    }
}
