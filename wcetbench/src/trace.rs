//! In-memory span recording for the traced run.
//!
//! A span is one interval at a layer boundary: its name, the operation it
//! belongs to, its parent span, and its start and end relative to the
//! run's epoch. Spans the benchmark times directly are *measured*; phase
//! spans rebuilt from an analysis report's `PhaseTrace` durations are
//! *synthetic* — laid end to end from their parent's start, because the
//! analyzer reports how long each phase took but not when it ran. A
//! layer's self time is its span's duration minus that of its children,
//! so per operation the self times of a span tree add up to the root
//! span exactly: nothing the benchmark measured goes unattributed.
//!
//! With tracing off every call is a no-op and takes no clock reading.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start: Duration,
    pub end: Duration,
    pub synthetic: bool,
}

impl Span {
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// A handle to an open span (`None` while tracing is off).
pub type SpanId = Option<usize>;

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    op: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            on,
            epoch,
            op: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Sets the operation id later spans carry.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return None;
        }
        let now = self.epoch.elapsed();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.open.last().copied(),
            start: now,
            end: now,
            synthetic: false,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        Some(id)
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn end(&mut self, id: SpanId) {
        let Some(id) = id else { return };
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(id), "spans close innermost first");
        self.spans[id].end = self.epoch.elapsed();
    }

    /// Records a span the caller timed itself: `start` and `duration`
    /// already measured, nested under the innermost open span.
    pub fn record(&mut self, name: &'static str, start: Instant, duration: Duration) -> SpanId {
        if !self.on {
            return None;
        }
        let start = start.saturating_duration_since(self.epoch);
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.open.last().copied(),
            start,
            end: start + duration,
            synthetic: false,
        });
        Some(self.spans.len() - 1)
    }

    /// Adds synthetic children under `parent`, laid end to end from the
    /// parent's start.
    pub fn synthetic_children(&mut self, parent: SpanId, parts: &[(&'static str, Duration)]) {
        let Some(parent) = parent else { return };
        let mut at = self.spans[parent].start;
        for &(name, duration) in parts {
            self.spans.push(Span {
                name,
                op: self.spans[parent].op,
                parent: Some(parent),
                start: at,
                end: at + duration,
                synthetic: true,
            });
            at += duration;
        }
    }

    /// Moves every span of `other` into `self`, keeping parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Per-name totals over a span set.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotals {
    pub count: u64,
    pub total: Duration,
    pub self_time: Duration,
}

/// Sums duration and self time (duration minus the children's
/// durations) per span name.
pub fn layer_totals(spans: &[Span]) -> BTreeMap<&'static str, LayerTotals> {
    let mut children = vec![Duration::ZERO; spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            children[p] += span.duration();
        }
    }
    let mut totals: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
    for (span, child) in spans.iter().zip(&children) {
        let t = totals.entry(span.name).or_default();
        t.count += 1;
        t.total += span.duration();
        t.self_time += span.duration().saturating_sub(*child);
    }
    totals
}

/// The spans plus their per-name totals as one JSON document.
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"time_unit\": \"us\", \"layers\": {{"
    );
    let totals = layer_totals(spans);
    for (i, (name, t)) in totals.iter().enumerate() {
        let _ = write!(
            out,
            "{}\n  \"{name}\": {{\"count\": {}, \"total_us\": {:.3}, \"self_us\": {:.3}}}",
            if i == 0 { "" } else { "," },
            t.count,
            micros(t.total),
            micros(t.self_time)
        );
    }
    out.push_str("\n}, \"spans\": [");
    for (i, s) in spans.iter().enumerate() {
        let parent = s
            .parent
            .map_or_else(|| "null".to_owned(), |p| p.to_string());
        let _ = write!(
            out,
            "{}\n  {{\"id\": {i}, \"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \
             \"start\": {:.3}, \"end\": {:.3}, \"synthetic\": {}}}",
            if i == 0 { "" } else { "," },
            s.name,
            s.op,
            micros(s.start),
            micros(s.end),
            s.synthetic
        );
    }
    out.push_str("\n]}\n");
    out
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}
