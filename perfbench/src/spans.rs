//! The benchmark's own trace: one span per public call it makes, kept in
//! memory and written out as JSON when the run ends. Spans come only from
//! this crate's call sites; nothing inside the library is instrumented.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// What was called (`network.dispatch`, `executor.execute_batch`, …).
    pub name: &'static str,
    /// Start, µs since the trace's origin.
    pub start_us: f64,
    /// End, µs since the trace's origin.
    pub end_us: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Epoch (block number) or deploy sequence number the call served.
    pub epoch: u64,
    /// Work items the call was handed (transactions, contracts).
    pub items: usize,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }

    /// Duration in microseconds.
    pub fn us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// An in-memory span log.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    /// An empty trace whose clock starts now.
    pub fn new() -> Trace {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Records a finished call; returns its index (a parent handle).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        epoch: u64,
        items: usize,
        start: Instant,
        end: Instant,
    ) -> usize {
        let us = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
        self.spans.push(Span {
            name,
            start_us: us(start),
            end_us: us(end),
            parent,
            epoch,
            items,
        });
        self.spans.len() - 1
    }

    /// Moves the end of an already-recorded span (a parent opened before
    /// its children and closed after them).
    pub fn close(&mut self, idx: usize, end: Instant) {
        self.spans[idx].end_us = end.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
    }

    /// Every recorded span, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The direct children of span `idx`.
    pub fn children(&self, idx: usize) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(move |s| s.parent == Some(idx))
    }

    /// The spans named `name`.
    pub fn named(&self, name: &'static str) -> impl Iterator<Item = (usize, &Span)> {
        self.spans
            .iter()
            .enumerate()
            .filter(move |(_, s)| s.name == name)
    }

    /// The trace as a JSON document (`{"spans": [...]}`).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_us\": {:.3}, \"end_us\": {:.3}, \
                 \"parent\": {parent}, \"epoch\": {}, \"items\": {}}}{}",
                s.name,
                s.start_us,
                s.end_us,
                s.epoch,
                s.items,
                if i + 1 < self.spans.len() { "," } else { "" }
            );
        }
        out.push_str("]}\n");
        out
    }
}
