//! Spans recorded from outside the program: the benchmark wraps each
//! call into a layer's public functions, keeps the spans in memory and
//! writes them as JSON lines when the run ends.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use impatience_json::Json;

/// One timed call: `parent` and `request` are 0 when absent.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span store. A disabled tracer still times the call (the
/// caller needs the duration) but records nothing.
pub struct Tracer {
    on: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A fresh id, for a span or a request.
    pub fn new_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Time `f` as span `name`; `f` receives the span's id so nested
    /// calls can name it as their parent. Returns the result and the
    /// duration in seconds.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: u64,
        request: u64,
        f: impl FnOnce(u64) -> R,
    ) -> (R, f64) {
        let id = self.new_id();
        let start = Instant::now();
        let out = f(id);
        let end = Instant::now();
        self.record(id, name, parent, request, start, end);
        (out, (end - start).as_secs_f64())
    }

    fn record(
        &self,
        id: u64,
        name: &'static str,
        parent: u64,
        request: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.on {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let span = Span {
            id,
            parent,
            request,
            name,
            start_ns: ns(start),
            end_ns: ns(end),
        };
        self.spans.lock().expect("span store poisoned").push(span);
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span store poisoned");
        let mut text = String::new();
        for s in spans.iter() {
            let line = Json::obj([
                ("id", Json::from(s.id)),
                ("parent", Json::from(s.parent)),
                ("request", Json::from(s.request)),
                ("name", Json::from(s.name)),
                ("start_ns", Json::from(s.start_ns)),
                ("end_ns", Json::from(s.end_ns)),
            ]);
            text.push_str(&line.to_string());
            text.push('\n');
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_keep_their_parent_and_request() {
        let t = Tracer::new(true);
        let (_, outer) = t.span("outer", 0, 9, |id| {
            t.span("inner", id, 9, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            })
        });
        assert!(outer >= 0.002);
        let spans = t.spans.lock().expect("lock").clone();
        assert_eq!(spans.len(), 2);
        let (inner, outer) = (&spans[0], &spans[1]);
        assert_eq!(inner.parent, outer.id);
        assert_eq!((inner.request, outer.request), (9, 9));
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
    }

    #[test]
    fn a_disabled_tracer_times_but_keeps_nothing() {
        let t = Tracer::new(false);
        let (v, secs) = t.span("x", 0, 0, |_| 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(t.spans.lock().expect("lock").is_empty());
    }
}
