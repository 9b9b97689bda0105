//! Spans the harness records around its calls into each layer during
//! the traced round. They are kept in memory and written out as JSON
//! lines when the benchmark ends.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One timed call (or batch of `count` calls) into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// `layer.call`, e.g. `unit.run_until`.
    pub name: &'static str,
    /// When the call started.
    pub start: Instant,
    /// When it returned.
    pub end: Instant,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The simulation run the span belongs to; shared by its spans.
    pub run: usize,
    /// Calls the span covers.
    pub count: u64,
}

/// The spans of one benchmark process, in the order they were opened.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// An empty recorder; span times are written relative to `origin`.
    pub fn new(origin: Instant) -> Self {
        Spans {
            origin,
            spans: Vec::new(),
        }
    }

    /// Records a span and returns its index (the `parent` of its children).
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Closes span `id` at `end`.
    pub fn end(&mut self, id: usize, end: Instant) {
        self.spans[id].end = end;
    }

    /// Total nanoseconds and calls of every span named `name`.
    pub fn total(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(ns, calls), s| {
                (ns + (s.end - s.start).as_nanos() as u64, calls + s.count)
            })
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"run\":{},\"start_ns\":{},\"end_ns\":{},\"count\":{}}}",
                s.name,
                s.run,
                (s.start - self.origin).as_nanos(),
                (s.end - self.origin).as_nanos(),
                s.count
            )?;
        }
        out.flush()
    }
}
