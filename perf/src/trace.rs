//! In-memory spans recorded by the benchmark around its calls into the
//! program, written out as one JSON file when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Spans kept for the file; later ones are counted, not stored.
const SPAN_CAP: usize = 200_000;

/// One timed call: what ran, when, under which span, for which round or
/// request.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index + 1 of the span that caused this one; 0 for a root.
    pub parent: u32,
    /// Round number or request id the span belongs to.
    pub id: u32,
}

/// The span store of one traced run.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            dropped: 0,
        }
    }

    /// Nanoseconds from the tracer's origin to `t`.
    pub fn at(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Stores a finished span and returns its handle for use as a
    /// parent (0 once the cap is reached).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u32,
        id: u32,
    ) -> u32 {
        if self.spans.len() >= SPAN_CAP {
            self.dropped += 1;
            return 0;
        }
        self.spans.push(Span {
            name,
            start_ns: self.at(start),
            end_ns: self.at(end),
            parent,
            id,
        });
        self.spans.len() as u32
    }

    /// Reserves a parent span whose end is filled in by [`close`](Self::close).
    pub fn open(&mut self, name: &'static str, start: Instant, parent: u32, id: u32) -> u32 {
        self.record(name, start, start, parent, id)
    }

    /// Sets the end of a span returned by [`open`](Self::open).
    pub fn close(&mut self, handle: u32, end: Instant) {
        let end_ns = self.at(end);
        if let Some(span) = (handle as usize)
            .checked_sub(1)
            .and_then(|i| self.spans.get_mut(i))
        {
            span.end_ns = end_ns;
        }
    }

    /// Writes `{"workload":…,"dropped":…,"spans":[…]}`.
    pub fn write(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(
            out,
            "{{\"workload\":\"{workload}\",\"dropped\":{},\"spans\":[",
            self.dropped
        )?;
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.write_all(b",")?;
            }
            write!(
                out,
                "\n{{\"span\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"id\":{}}}",
                i + 1,
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent,
                s.id
            )?;
        }
        out.write_all(b"\n]}\n")?;
        out.flush()
    }
}
