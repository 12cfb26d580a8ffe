//! In-memory spans around calls into each layer's public functions.
//!
//! A span records its name, the job it belongs to, the span that caused it,
//! and its start and end. Spans are kept in memory and written once when
//! the run ends; a layer's self time is its span's duration minus the part
//! its child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

use serde::Content;

use crate::json::{int, obj, text};

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer and function, e.g. `kernel.sweep`.
    pub name: &'static str,
    /// The job (or ladder repetition) the call served.
    pub request: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in milliseconds.
    #[must_use]
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Collects spans; nesting follows the closures passed to [`Tracer::span`].
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name` for job `request`; spans opened
    /// by `f` become its children.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        let index = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, request, parent, start_ns, end_ns: start_ns });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Every recorded span, in start order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time in milliseconds of every span (duration minus children).
    #[must_use]
    pub fn self_ms(&self) -> Vec<f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.end_ns - span.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c) as f64 / 1e6)
            .collect()
    }

    /// Per span name over the jobs `keep` admits: (calls, total ms, total
    /// self ms).
    #[must_use]
    pub fn totals(&self, keep: impl Fn(u64) -> bool) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let self_ms = self.self_ms();
        let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self_ms) {
            if keep(span.request) {
                let e = out.entry(span.name).or_default();
                e.0 += 1;
                e.1 += span.ms();
                e.2 += own;
            }
        }
        out
    }

    /// The spans as JSON rows `{name, request_id, parent, start_ns, end_ns}`.
    #[must_use]
    pub fn to_json(&self) -> Content {
        Content::Seq(
            self.spans
                .iter()
                .map(|s| {
                    obj(vec![
                        ("name", text(s.name)),
                        ("request_id", int(s.request)),
                        ("parent", s.parent.map_or(Content::Null, |p| int(p as u64))),
                        ("start_ns", int(s.start_ns)),
                        ("end_ns", int(s.end_ns)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ms: u64) {
        let until = Instant::now() + std::time::Duration::from_millis(ms);
        while Instant::now() < until {}
    }

    #[test]
    fn self_time_excludes_children() {
        let mut tr = Tracer::default();
        tr.span("outer", 1, |tr| {
            spin(2);
            tr.span("inner", 1, |_| spin(5));
        });
        tr.span("outer", 2, |_| spin(1));
        let spans = tr.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, None);
        let own = tr.self_ms();
        assert!((own[0] - (spans[0].ms() - spans[1].ms())).abs() < 1e-9);
        assert!(own[0] >= 2.0 && own[0] < spans[0].ms());
        let totals = tr.totals(|r| r == 1);
        assert_eq!(totals["outer"].0, 1, "job 2 is filtered out");
        assert_eq!(totals["inner"].0, 1);
    }
}
