//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! Spans live only in the benchmark: the simulator crates stay free of
//! wall-clock reads. A traced child keeps its spans in memory and hands
//! them to the parent, which writes them out when the run ends.

use crate::json::{write_num, write_str};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub thread: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub counters: Vec<(&'static str, f64)>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }

    /// One JSONL record; `workload` and `rep` place it within the run,
    /// `self_ns` is its [`self_time_ns`] among the run's spans.
    pub fn to_json(&self, workload: &str, rep: usize, self_ns: u64) -> String {
        let mut out = format!("{{\"id\":{},\"parent\":", self.id);
        match self.parent {
            Some(p) => out.push_str(&p.to_string()),
            None => out.push_str("null"),
        }
        out.push_str(",\"name\":");
        write_str(&mut out, self.name);
        out.push_str(",\"workload\":");
        write_str(&mut out, workload);
        out.push_str(&format!(
            ",\"rep\":{rep},\"thread\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns},\"counters\":{{",
            self.thread, self.start_ns, self.end_ns
        ));
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_str(&mut out, k);
            out.push(':');
            write_num(&mut out, *v);
        }
        out.push_str("}}");
        out
    }
}

/// A span that has started but not ended.
#[must_use = "an open span records nothing until it is closed"]
pub struct Open {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start_ns: u64,
}

impl Open {
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// Collects spans from any number of threads.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn open(&self, name: &'static str, parent: Option<u64>) -> Open {
        Open {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            start_ns: self.now_ns(),
        }
    }

    /// Ends `open` now and returns the span's duration in seconds.
    pub fn close(&self, open: Open, counters: &[(&'static str, f64)]) -> f64 {
        let span = Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            thread: THREAD.with(|t| *t),
            start_ns: open.start_ns,
            end_ns: self.now_ns(),
            counters: counters.to_vec(),
        };
        let secs = span.secs();
        self.spans
            .lock()
            .expect("a span recorder panicked while holding the lock")
            .push(span);
        secs
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, parent: Option<u64>, f: impl FnOnce(u64) -> R) -> R {
        let open = self.open(name, parent);
        let r = f(open.id());
        self.close(open, &[]);
        r
    }

    pub fn into_spans(self) -> Vec<Span> {
        let mut spans = self
            .spans
            .into_inner()
            .expect("a span recorder panicked while holding the lock");
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Spans named `name`.
pub fn named<'a>(spans: &'a [Span], name: &'a str) -> impl Iterator<Item = &'a Span> {
    spans.iter().filter(move |s| s.name == name)
}

/// Total duration in seconds of the spans named `name`.
pub fn total_secs(spans: &[Span], name: &str) -> f64 {
    named(spans, name).map(Span::secs).sum()
}

/// A span's duration minus the part of it its children cover. Children
/// on different threads may overlap; the union is subtracted once.
pub fn self_time_ns(spans: &[Span], id: u64) -> u64 {
    let Some(span) = spans.iter().find(|s| s.id == id) else {
        return 0;
    };
    let mut children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| {
            (
                s.start_ns.clamp(span.start_ns, span.end_ns),
                s.end_ns.clamp(span.start_ns, span.end_ns),
            )
        })
        .collect();
    children.sort_unstable();
    let mut covered = 0;
    let mut run: Option<(u64, u64)> = None;
    for (start, end) in children {
        match run {
            Some((s, e)) if start <= e => run = Some((s, e.max(end))),
            _ => {
                if let Some((s, e)) = run {
                    covered += e - s;
                }
                run = Some((start, end));
            }
        }
    }
    if let Some((s, e)) = run {
        covered += e - s;
    }
    (span.end_ns - span.start_ns) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, thread: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "s",
            thread,
            start_ns,
            end_ns,
            counters: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        // A pool span [0, 100] with two workers: thread 1 runs hosts at
        // [5, 40] and [40, 90], thread 2 runs [10, 60] and [60, 70]. The
        // union is [5, 90], so self time is 100 - 85 = 15.
        let spans = vec![
            span(1, None, 0, 0, 100),
            span(2, Some(1), 1, 5, 40),
            span(3, Some(1), 2, 10, 60),
            span(4, Some(1), 1, 40, 90),
            span(5, Some(1), 2, 60, 70),
        ];
        assert_eq!(self_time_ns(&spans, 1), 15);
        assert_eq!(self_time_ns(&spans, 2), 35);
    }

    #[test]
    fn self_time_clips_children_and_ignores_grandchildren() {
        let spans = vec![
            span(1, None, 0, 10, 50),
            span(2, Some(1), 0, 0, 20),
            span(3, Some(2), 0, 0, 20),
            span(4, Some(1), 0, 45, 60),
        ];
        assert_eq!(self_time_ns(&spans, 1), 40 - 10 - 5);
    }

    #[test]
    fn spans_from_two_threads_are_all_kept() {
        let tracer = Tracer::default();
        let root = tracer.open("root", None);
        let root_id = root.id();
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| tracer.span("child", Some(root_id), |_| ()));
            }
        });
        tracer.close(root, &[("n", 2.0)]);
        let spans = tracer.into_spans();
        assert_eq!(named(&spans, "child").count(), 2);
        let threads: Vec<u64> = named(&spans, "child").map(|s| s.thread).collect();
        assert_ne!(threads[0], threads[1]);
        let line = spans[0].to_json("w", 0, self_time_ns(&spans, spans[0].id));
        let v = crate::json::parse(&line).unwrap();
        assert_eq!(v.get("name").unwrap().as_str(), Some("root"));
    }
}
