//! Benchmark-owned spans, recorded around calls into the crates' public
//! functions. They stay in memory and are written as JSONL when the run
//! ends, so recording adds no I/O to a measured operation.

use crate::report::json_num;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// A fresh span id, unique across threads.
fn next_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// One timed call. `request` is shared by every span one operation or
/// service request caused; `parent` is the span that made the call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: Option<u64>,
    pub request: u64,
    pub start: Instant,
    pub end: Instant,
    pub attrs: Vec<(&'static str, f64)>,
}

impl Span {
    pub fn new(name: &'static str, request: u64, start: Instant, end: Instant) -> Self {
        Span {
            name,
            id: next_id(),
            parent: None,
            request,
            start,
            end,
            attrs: Vec::new(),
        }
    }

    pub fn child_of(mut self, parent: u64) -> Self {
        self.parent = Some(parent);
        self
    }

    pub fn attr(mut self, key: &'static str, value: f64) -> Self {
        self.attrs.push((key, value));
        self
    }

    pub fn ms(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64() * 1e3
    }
}

/// Write `spans` as JSON lines, times in microseconds since `epoch`.
pub fn write_jsonl(path: &std::path::Path, epoch: Instant, spans: &[Span]) -> Result<(), String> {
    let us = |t: Instant| t.saturating_duration_since(epoch).as_secs_f64() * 1e6;
    let mut out = Vec::new();
    for s in spans {
        let attrs: Vec<String> = s
            .attrs
            .iter()
            .map(|(k, v)| format!("\"{k}\":{}", json_num(*v)))
            .collect();
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"request\":{},\"start_us\":{},\"end_us\":{},\"attrs\":{{{}}}}}",
            s.name,
            s.id,
            parent,
            s.request,
            json_num(us(s.start)),
            json_num(us(s.end)),
            attrs.join(",")
        )
        .expect("writing to a Vec cannot fail");
    }
    std::fs::write(path, out).map_err(|e| format!("cannot write {}: {e}", path.display()))
}
