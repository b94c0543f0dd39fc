//! In-memory spans for the traced run.
//!
//! A span records one call into a layer: its name, start, end, and the span
//! that caused it.  Each thread keeps its own [`SpanLog`]; the log keeps the
//! first [`SpanLog::KEEP`] spans for the trace file and folds every span,
//! kept or not, into a per-name duration histogram, so the per-layer
//! metrics cover the whole measured window while memory stays bounded.

use crate::stats::Histogram;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds since the first call in this process (the trace epoch).
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// A process-unique span identifier (0 means "no parent").
pub fn next_span_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// One timed call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer and call, e.g. `gate.park`.
    pub name: &'static str,
    /// This span's identifier.
    pub id: u64,
    /// The identifier of the span that caused this one, or 0.
    pub parent: u64,
    /// Start, in [`now_ns`] time.
    pub start_ns: u64,
    /// End, in [`now_ns`] time.
    pub end_ns: u64,
}

impl Span {
    /// The span's length.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span's self time: its length minus the part of it that the union of
/// its children's intervals covers.  Children may overlap one another and
/// may run past the parent's ends; only the covered part counts.
pub fn self_time_ns(parent: &Span, children: &[Span]) -> u64 {
    let mut iv: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_ns.max(parent.start_ns), c.end_ns.min(parent.end_ns)))
        .filter(|(s, e)| s < e)
        .collect();
    iv.sort_unstable();
    let mut covered = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    parent.duration_ns().saturating_sub(covered)
}

/// One thread's spans.
#[derive(Debug, Default)]
pub struct SpanLog {
    kept: Vec<Span>,
    dropped: u64,
    by_name: BTreeMap<&'static str, Histogram>,
}

impl SpanLog {
    /// Spans kept per log for the trace file.
    pub const KEEP: usize = 50_000;

    /// Records a finished span and returns it.
    pub fn record(&mut self, name: &'static str, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        let span = Span {
            name,
            id: next_span_id(),
            parent,
            start_ns,
            end_ns,
        };
        self.push(span);
        span
    }

    /// Records a span whose identifier was taken earlier (a parent opened
    /// before its children).
    pub fn push(&mut self, span: Span) {
        self.by_name
            .entry(span.name)
            .or_default()
            .record(span.duration_ns());
        if self.kept.len() < Self::KEEP {
            self.kept.push(span);
        } else {
            self.dropped += 1;
        }
    }

    /// Folds a value other than a span length into the named histogram
    /// (a derived time such as a self time).
    pub fn observe(&mut self, name: &'static str, value_ns: u64) {
        self.by_name.entry(name).or_default().record(value_ns);
    }

    /// Adds every span and histogram of `other`.
    pub fn merge(&mut self, other: SpanLog) {
        for (name, h) in other.by_name {
            self.by_name.entry(name).or_default().merge(&h);
        }
        let room = Self::KEEP.saturating_sub(self.kept.len());
        let take = other.kept.len().min(room);
        self.dropped += other.dropped + (other.kept.len() - take) as u64;
        self.kept.extend_from_slice(&other.kept[..take]);
    }

    /// The histogram of everything recorded under `name` (empty if none).
    pub fn hist(&self, name: &str) -> Histogram {
        self.by_name.get(name).cloned().unwrap_or_default()
    }

    /// Spans kept for the trace file.
    pub fn kept(&self) -> &[Span] {
        &self.kept
    }

    /// Spans recorded but not kept.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Writes the kept spans as tab-separated `name id parent start end`
    /// lines, preceded by a header and the dropped count.
    pub fn write_to(&self, out: &mut impl Write) -> io::Result<()> {
        writeln!(
            out,
            "# spans kept={} dropped={}",
            self.kept.len(),
            self.dropped
        )?;
        writeln!(out, "name\tid\tparent\tstart_ns\tend_ns")?;
        for s in &self.kept {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                s.name, s.id, s.parent, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}
