//! In-memory span recorder for the traced run.
//!
//! Every call the benchmark makes into a layer can be wrapped in a span:
//! a name, start, end, parent and the id of the request it serves. Spans
//! stay in memory and are written out as JSON lines when the run ends.
//! A layer's self time is its span's duration minus the part of that
//! interval its child spans cover. A disabled tracer records nothing and
//! costs one branch per call, so untraced runs measure the program alone.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Parent id of a root span.
pub const ROOT: u64 = 0;

/// One finished span; times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub request: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A fresh span id, to hand to children before the span closes.
    pub fn reserve(&self) -> u64 {
        if self.enabled {
            self.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            ROOT
        }
    }

    /// Run `f` inside a span; `f` receives the span's id so it can
    /// parent further spans.
    pub fn span<R>(&self, name: &str, parent: u64, request: u64, f: impl FnOnce(u64) -> R) -> R {
        if !self.enabled {
            return f(ROOT);
        }
        let id = self.reserve();
        let start = Instant::now();
        let out = f(id);
        self.record(id, name, parent, request, start, Instant::now());
        out
    }

    /// Record a span measured by the caller (for intervals that start
    /// before the code that observes them, such as a request's due time).
    pub fn record(
        &self,
        id: u64,
        name: &str,
        parent: u64,
        request: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let span = Span {
            id,
            parent,
            request,
            name: name.to_string(),
            start_ns: ns(start),
            end_ns: ns(end).max(ns(start)),
        };
        self.spans.lock().expect("span list poisoned").push(span);
    }

    /// Copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }

    /// Durations in seconds of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span list poisoned")
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_s)
            .collect()
    }

    /// Total self time in seconds per span name.
    pub fn self_times(&self) -> HashMap<String, f64> {
        let spans = self.spans();
        let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
        for s in &spans {
            if s.parent != ROOT {
                children
                    .entry(s.parent)
                    .or_default()
                    .push((s.start_ns, s.end_ns));
            }
        }
        let mut out: HashMap<String, f64> = HashMap::new();
        for s in &spans {
            let covered = children
                .get(&s.id)
                .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
            *out.entry(s.name.clone()).or_default() +=
                (s.end_ns - s.start_ns - covered) as f64 / 1e9;
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_ns(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut v: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.clamp(lo, hi), e.clamp(lo, hi)))
        .filter(|(s, e)| e > s)
        .collect();
    v.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in v {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_of_overlapping_children() {
        assert_eq!(covered_ns(&[(0, 10), (5, 15), (20, 30)], 0, 100), 25);
        assert_eq!(covered_ns(&[(0, 10), (5, 15)], 8, 12), 4);
        assert_eq!(covered_ns(&[], 0, 10), 0);
    }

    #[test]
    fn self_time_excludes_children() {
        let t = Tracer::new(true);
        t.span("outer", ROOT, 1, |id| {
            t.span("inner", id, 1, |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        let st = t.self_times();
        assert!(st["inner"] >= 0.019);
        assert!(st["outer"] < st["inner"]);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert!(spans.iter().all(|s| s.request == 1));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", ROOT, 0, |id| id), ROOT);
        assert!(t.spans().is_empty());
    }
}
