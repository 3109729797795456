//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records its name, start, end and the span that caused it.
//! Spans stay in memory while the workload runs and are written out as
//! JSON Lines when the benchmark ends. A layer's self time is its
//! span's duration minus the part of that interval its child spans
//! cover. With tracing off, [`Tracer::span`] only calls its closure.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

pub struct Tracer {
    on: bool,
    t0: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn off() -> Tracer {
        Tracer::new(false)
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name` under `parent` (0 for a
    /// root). `f` receives the new span's id to parent its children.
    pub fn span<R>(&self, name: &'static str, parent: u64, f: impl FnOnce(u64) -> R) -> R {
        if !self.on {
            return f(0);
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let r = f(id);
        let end_ns = self.now_ns();
        self.spans.lock().expect("span buffer poisoned").push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
        });
        r
    }

    /// Durations in seconds of every span named `name`, in end order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        let spans = self.spans.lock().expect("span buffer poisoned");
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Total self time in seconds per span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans.lock().expect("span buffer poisoned");
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for s in spans.iter() {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
        let mut out = BTreeMap::new();
        for s in spans.iter() {
            let covered = children
                .get_mut(&s.id)
                .map_or(0, |kids| union_within(kids, s.start_ns, s.end_ns));
            *out.entry(s.name).or_insert(0.0) +=
                (s.end_ns - s.start_ns).saturating_sub(covered) as f64 * 1e-9;
        }
        out
    }

    /// Write every span as one JSON line.
    pub fn write_jsonl(&self, path: &std::path::Path, workload: &str) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span buffer poisoned");
        let mut out = String::with_capacity(spans.len() * 96);
        for s in spans.iter() {
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"workload\":\"{}\"}}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns, workload
            );
        }
        std::fs::write(path, out)
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn union_within(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::union_within;

    #[test]
    fn overlapping_children_count_once() {
        let mut kids = vec![(10, 40), (20, 30), (35, 60), (90, 120)];
        assert_eq!(union_within(&mut kids, 0, 100), 50 + 10);
    }
}
