//! Harness-side spans: recorded around the calls the harness makes into
//! each layer's public functions, kept in memory, written out at exit.
//!
//! The replays of one query run one after another, so a span's `parent` is
//! the span that *contains its work in the real program* (`service.submit`
//! contains `session.answer`, which contains lint, probe and the winner),
//! not the span that was open on the clock. A span's self time is its
//! duration minus the durations of the replays it contains.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

use crate::stats::median;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index of this span in the recorder.
    pub id: usize,
    /// The containing span, if any.
    pub parent: Option<usize>,
    /// The query (position in the traced replay) the span belongs to.
    pub query: usize,
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Start, in ns since the recorder was created.
    pub start_ns: u64,
    /// End, in ns since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration in ns.
    pub fn busy_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans in memory.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// An empty recorder; its clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.origin).as_nanos() as u64
    }

    /// Records a span timed by the caller.
    pub fn add(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        query: usize,
        start: Instant,
        end: Instant,
    ) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent,
            query,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        id
    }

    /// Opens a span that [`Recorder::close`] ends later.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, query: usize) -> usize {
        let now = Instant::now();
        self.add(name, parent, query, now, now)
    }

    /// Ends a span opened with [`Recorder::open`].
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.ns(Instant::now());
    }

    /// Runs `f` inside a span and returns the span id with `f`'s result.
    pub fn record<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        query: usize,
        f: impl FnOnce() -> R,
    ) -> (usize, R) {
        let id = self.open(name, parent, query);
        let out = f();
        self.close(id);
        (id, out)
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Writes one JSON object per span.
pub fn write_jsonl(spans: &[Span], out: &mut impl Write) -> std::io::Result<()> {
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\": {}, \"parent\": {parent}, \"query\": {}, \"name\": \"{}\", \
             \"start_ns\": {}, \"end_ns\": {}}}",
            s.id, s.query, s.name, s.start_ns, s.end_ns
        )?;
    }
    Ok(())
}

/// All spans of one name, folded.
#[derive(Debug, Clone, PartialEq)]
pub struct Folded {
    /// How many spans carried the name.
    pub count: usize,
    /// Median duration, ns.
    pub busy_p50_ns: f64,
    /// Median self time (duration minus contained replays, floored at 0), ns.
    pub self_p50_ns: f64,
    /// Sum of durations, ns.
    pub busy_total_ns: u64,
}

/// Each span's self time: its duration minus its children's, floored at 0.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p] += s.busy_ns();
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.busy_ns().saturating_sub(c))
        .collect()
}

/// Folds spans by name.
pub fn fold(spans: &[Span]) -> BTreeMap<&'static str, Folded> {
    let selfs = self_times(spans);
    let mut by_name: BTreeMap<&'static str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let entry = by_name.entry(s.name).or_default();
        entry.0.push(s.busy_ns() as f64);
        entry.1.push(own as f64);
    }
    by_name
        .into_iter()
        .map(|(name, (busy, own))| {
            let folded = Folded {
                count: busy.len(),
                busy_p50_ns: median(&busy),
                self_p50_ns: median(&own),
                busy_total_ns: busy.iter().sum::<f64>() as u64,
            };
            (name, folded)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        id: usize,
        parent: Option<usize>,
        query: usize,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> Span {
        Span {
            id,
            parent,
            query,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn folds_a_hand_built_tree() {
        // Two queries. Replays run after their logical parent, so parents
        // and children do not overlap on the clock.
        let spans = vec![
            span(0, None, 0, "query", 0, 400),
            span(1, Some(0), 0, "service.submit", 0, 100),
            span(2, Some(1), 0, "session.answer", 100, 190),
            span(3, Some(2), 0, "analyze.lint_plan", 190, 200),
            span(4, Some(2), 0, "online.answer", 200, 270),
            span(5, None, 1, "query", 400, 1000),
            span(6, Some(5), 1, "service.submit", 400, 600),
            // A replay slower than its parent: self time floors at zero.
            span(7, Some(6), 1, "session.answer", 600, 850),
            span(8, Some(7), 1, "online.answer", 850, 1000),
        ];
        assert_eq!(
            self_times(&spans),
            vec![300, 10, 10, 10, 70, 400, 0, 100, 150]
        );
        let folded = fold(&spans);
        let submit = &folded["service.submit"];
        assert_eq!(submit.count, 2);
        assert_eq!(submit.busy_total_ns, 300);
        assert_eq!(submit.busy_p50_ns, 100.0);
        assert_eq!(submit.self_p50_ns, 0.0);
        assert_eq!(folded["online.answer"].busy_total_ns, 220);
        assert_eq!(folded["analyze.lint_plan"].count, 1);
        assert_eq!(folded["session.answer"].self_p50_ns, 10.0);
    }

    #[test]
    fn recorder_nests_and_serialises() {
        let mut rec = Recorder::new();
        let root = rec.open("query", None, 7);
        let (child, value) = rec.record("service.submit", Some(root), 7, || 41 + 1);
        rec.close(root);
        assert_eq!(value, 42);
        let spans = rec.spans();
        assert_eq!(spans[child].parent, Some(root));
        assert!(spans[root].start_ns <= spans[child].start_ns);
        assert!(spans[child].end_ns <= spans[root].end_ns);
        let mut bytes = Vec::new();
        write_jsonl(spans, &mut bytes).unwrap();
        let text = String::from_utf8(bytes).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.starts_with("{\"id\": 0, \"parent\": null, \"query\": 7, \"name\": \"query\""));
    }
}
