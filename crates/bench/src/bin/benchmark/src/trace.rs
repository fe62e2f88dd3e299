//! In-memory spans around the public calls into each layer.
//!
//! A traced loop reads the clock once per boundary: each stage is the gap
//! between two consecutive reads, so the stages of one parent span add up
//! exactly (in integer nanoseconds) to the parent's duration minus the
//! time deliberately left unattributed with [`Tracer::skip`] and the gap
//! before [`Tracer::end`]. That remainder is the "unaccounted" share the
//! benchmark reports.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Sentinel for "no parent" and "no query/service id".
pub const NONE: u32 = u32::MAX;

/// One closed span. Times are nanoseconds since the tracer's origin.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified stage name, e.g. `sthole.refine`.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span in the tracer, or [`NONE`].
    pub parent: u32,
    /// Query or service id within the parent, or [`NONE`].
    pub id: u32,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans into memory; see the module docs.
pub struct Tracer {
    origin: Instant,
    last_ns: u64,
    parent: u32,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            last_ns: 0,
            parent: NONE,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the origin for an instant read elsewhere (e.g. on
    /// an engine thread); instants before the origin map to 0.
    fn offset(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    fn now(&self) -> u64 {
        self.offset(Instant::now())
    }

    /// Opens a parent span; the stages recorded until [`Tracer::end`] are
    /// its children. Returns the span's index.
    pub fn begin(&mut self, name: &'static str) -> u32 {
        let now = self.now();
        self.last_ns = now;
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: NONE,
            id: NONE,
        });
        self.parent = idx;
        idx
    }

    /// Closes the stage running since the previous boundary.
    pub fn stage(&mut self, name: &'static str, id: u32) {
        let now = self.now();
        self.spans.push(Span {
            name,
            start_ns: self.last_ns,
            end_ns: now,
            parent: self.parent,
            id,
        });
        self.last_ns = now;
    }

    /// Moves the boundary without recording: the time since the previous
    /// boundary stays unaccounted (benchmark bookkeeping).
    pub fn skip(&mut self) {
        self.last_ns = self.now();
    }

    /// Closes the parent span opened by [`Tracer::begin`].
    pub fn end(&mut self, idx: u32) {
        let now = self.now();
        self.spans[idx as usize].end_ns = now;
        self.parent = NONE;
    }

    /// Adds an already-measured span (one measured on another thread, such
    /// as an engine service); returns its index.
    pub fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u32,
        id: u32,
    ) -> u32 {
        let (start_ns, end_ns) = (self.offset(start), self.offset(end));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            id,
        });
        self.spans.len() as u32 - 1
    }

    /// Durations (ns) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64)
            .collect()
    }

    /// Total nanoseconds of every span named `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns)
            .sum()
    }

    /// Summed parent-span wall time and the part of it no child span
    /// covers, over every parent span named `name`.
    pub fn accounting(&self, name: &str) -> (u64, u64) {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NONE {
                covered[s.parent as usize] += s.ns();
            }
        }
        let (mut wall, mut unaccounted) = (0, 0);
        for (s, &c) in self.spans.iter().zip(&covered) {
            if s.name == name {
                wall += s.ns();
                unaccounted += s.ns().saturating_sub(c);
            }
        }
        (wall, unaccounted)
    }

    /// Appends the spans as JSON lines to `path`, tagged with `workload`.
    pub fn write_jsonl(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (idx, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "{{\"workload\": \"{workload}\", \"span\": {idx}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}",
                s.name, s.start_ns, s.end_ns
            );
            if s.parent != NONE {
                let _ = write!(out, ", \"parent\": {}", s.parent);
            }
            if s.id != NONE {
                let _ = write!(out, ", \"id\": {}", s.id);
            }
            out.push_str("}\n");
        }
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        f.write_all(out.as_bytes())?;
        f.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stages_add_up_to_the_parent_exactly() {
        let mut t = Tracer::new(Instant::now());
        let run = t.begin("run");
        let mut acc = 0u64;
        for i in 0..1000u32 {
            // Some work between boundaries so stages are not all zero.
            for k in 0..(i % 7) {
                acc = acc.wrapping_add(std::hint::black_box(k as u64));
            }
            t.stage(if i % 2 == 0 { "a" } else { "b" }, i);
        }
        std::hint::black_box(acc);
        let last = t.last_ns;
        t.end(run);
        let parent = &t.spans[run as usize];
        let children: u64 = t.total_ns("a") + t.total_ns("b");
        // Consecutive boundaries telescope: children cover start..last.
        assert_eq!(children, last - parent.start_ns);
        let (wall, unaccounted) = t.accounting("run");
        assert_eq!(wall, parent.ns());
        assert_eq!(unaccounted, parent.end_ns - last);
        assert_eq!(t.durations("a").len(), 500);
    }

    #[test]
    fn skipped_time_is_unaccounted() {
        let mut t = Tracer::new(Instant::now());
        let run = t.begin("run");
        t.stage("a", NONE);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.skip();
        t.stage("b", NONE);
        t.end(run);
        let (wall, unaccounted) = t.accounting("run");
        let covered = t.total_ns("a") + t.total_ns("b");
        assert_eq!(wall, covered + unaccounted);
        assert!(unaccounted >= 2_000_000, "the skipped sleep is unaccounted");
    }

    #[test]
    fn pushed_spans_attach_to_their_parent() {
        let origin = Instant::now();
        let mut t = Tracer::new(origin);
        let a = Instant::now();
        let b = Instant::now();
        let phase = t.push("phase", origin, Instant::now(), NONE, NONE);
        assert_eq!(t.push("svc", a, b, phase, 0), 1);
        assert_eq!(t.spans[1].parent, phase);
        let (wall, unaccounted) = t.accounting("phase");
        assert_eq!(wall, unaccounted + t.total_ns("svc"));
        assert_eq!(t.total_ns("svc"), (b - a).as_nanos() as u64);
    }
}
