//! In-memory span recorder for the traced replicas.
//!
//! Spans are opened and closed around calls into the program's public
//! functions from the benchmark's own code; nothing inside the program is
//! instrumented. Each span records its name, start and end (nanoseconds
//! since the tracer was created), the span that was open when it started,
//! and the operation (arrival or instance) it belongs to.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One closed (or still open) span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `resv.commit`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's epoch.
    pub start: u64,
    /// End, nanoseconds since the tracer's epoch (0 while open).
    pub end: u64,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// Operation the span belongs to.
    pub op: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Records spans in memory; write them out with [`Tracer::write_jsonl`]
/// once the measured work is over.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose epoch is now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Attribute the spans opened from now on to operation `op`.
    pub fn set_op(&mut self, op: u32) {
        self.op = op;
    }

    /// Open a span nested in the innermost open one; returns its index.
    pub fn enter(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: 0,
            parent,
            op: self.op,
        });
        self.open.push(id);
        id
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        let end = self.now();
        let id = self.open.pop().expect("exit without a matching enter");
        self.spans[id as usize].end = end;
    }

    /// Rename span `id`, for spans whose category (admitted or rejected)
    /// is known only after the call returned.
    pub fn rename(&mut self, id: u32, name: &'static str) {
        self.spans[id as usize].name = name;
    }

    /// Run `f` inside a span named `name`.
    pub fn leaf<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let r = f();
        self.exit();
        r
    }

    /// The recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start, s.end, s.op
            )?;
        }
        Ok(())
    }
}

/// Check that every span is closed and lies inside its parent, that
/// siblings do not overlap, and that the children of a span started after
/// it (they are recorded in opening order).
pub fn check_nesting(spans: &[Span]) -> Result<(), String> {
    let mut last_child_end: Vec<u64> = vec![0; spans.len()];
    let mut root_end = 0u64;
    for (i, s) in spans.iter().enumerate() {
        if s.end < s.start || (s.end == 0 && s.start > 0) {
            return Err(format!("span {i} ({}) is not closed", s.name));
        }
        if s.parent == NO_PARENT {
            if s.start < root_end {
                return Err(format!(
                    "root span {i} ({}) overlaps its predecessor",
                    s.name
                ));
            }
            root_end = s.end;
            continue;
        }
        let p = s.parent as usize;
        if p >= i {
            return Err(format!("span {i} ({}) names a later parent {p}", s.name));
        }
        let ps = &spans[p];
        if s.start < ps.start || s.end > ps.end {
            return Err(format!(
                "span {i} ({}) leaves its parent {p} ({})",
                s.name, ps.name
            ));
        }
        if s.start < last_child_end[p] {
            return Err(format!("span {i} ({}) overlaps a sibling", s.name));
        }
        last_child_end[p] = s.end;
    }
    Ok(())
}

/// Self time of every span: its duration minus the durations of its
/// direct children.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut out: Vec<u64> = spans.iter().map(Span::dur).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            let p = s.parent as usize;
            out[p] = out[p].saturating_sub(s.dur());
        }
    }
    out
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotal {
    /// Spans with this name.
    pub count: u64,
    /// Summed durations, nanoseconds.
    pub total_ns: u64,
    /// Summed self times, nanoseconds.
    pub self_ns: u64,
}

/// Totals by span name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotal> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.dur();
        t.self_ns += own;
    }
    out
}

/// Relative gap between the summed self times of all spans and `wall_ns`,
/// the measured wall time the root spans are meant to cover.
pub fn partition_gap(spans: &[Span], wall_ns: u64) -> f64 {
    let covered: u64 = self_times(spans).iter().sum();
    (wall_ns as f64 - covered as f64).abs() / (wall_ns.max(1)) as f64
}
