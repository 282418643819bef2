//! In-memory spans recorded by the benchmark around its calls into each
//! layer, written out once the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One timed interval: a call into a layer, or a phase a layer reported.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.prune`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// The request (operation index) the span belongs to.
    pub request: u64,
}

impl Span {
    /// `end − start` in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans in memory; nothing is written until [`Tracer::write_tsv`].
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a span with explicit bounds.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Opens a span now; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>, request: u64) -> SpanId {
        let now = self.now_ns();
        self.record(name, parent, request, now, now)
    }

    /// Closes a span opened with [`Tracer::begin`].
    pub fn end(&mut self, id: SpanId) {
        let now = self.now_ns();
        self.spans[id].end_ns = now.max(self.spans[id].start_ns);
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, SpanId) {
        let id = self.begin(name, parent, request);
        let out = f();
        self.end(id);
        (out, id)
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one span per line: `request name start_ns end_ns parent self_ns`.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let children = children_of(&self.spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "request\tname\tstart_ns\tend_ns\tparent\tself_ns")?;
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                span.request,
                span.name,
                span.start_ns,
                span.end_ns,
                parent,
                self_time_ns(&self.spans, &children[id], id)
            )?;
        }
        out.flush()
    }
}

/// The direct children of every span, indexed by span id.
pub fn children_of(spans: &[Span]) -> Vec<Vec<SpanId>> {
    let mut children = vec![Vec::new(); spans.len()];
    for (id, span) in spans.iter().enumerate() {
        if let Some(parent) = span.parent {
            children[parent].push(id);
        }
    }
    children
}

/// A span's self time: its duration minus the part of its interval that
/// its direct children cover. Overlapping children count once, and child
/// time outside the parent's interval does not count.
pub fn self_time_ns(spans: &[Span], children: &[SpanId], id: SpanId) -> u64 {
    let parent = &spans[id];
    let mut intervals: Vec<(u64, u64)> = children
        .iter()
        .map(|&c| {
            (
                spans[c].start_ns.max(parent.start_ns),
                spans[c].end_ns.min(parent.end_ns),
            )
        })
        .filter(|(s, e)| s < e)
        .collect();
    intervals.sort_unstable();
    let mut covered = 0u64;
    let mut reach = parent.start_ns;
    for (s, e) in intervals {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    parent.duration_ns() - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree(intervals: &[(u64, u64, Option<SpanId>)]) -> Vec<Span> {
        intervals
            .iter()
            .map(|&(start_ns, end_ns, parent)| Span {
                name: "t",
                start_ns,
                end_ns,
                parent,
                request: 0,
            })
            .collect()
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = tree(&[(0, 100, None), (10, 30, Some(0)), (50, 60, Some(0))]);
        let children = children_of(&spans);
        assert_eq!(self_time_ns(&spans, &children[0], 0), 70);
        assert_eq!(self_time_ns(&spans, &children[1], 1), 20);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        // Children [10,40) and [30,50) overlap on [30,40); [90,120) sticks
        // out past the parent's end and only [90,100) counts.
        let spans = tree(&[
            (0, 100, None),
            (10, 40, Some(0)),
            (30, 50, Some(0)),
            (90, 120, Some(0)),
        ]);
        let children = children_of(&spans);
        assert_eq!(self_time_ns(&spans, &children[0], 0), 100 - 40 - 10);
    }

    #[test]
    fn grandchildren_do_not_count_against_the_root() {
        let spans = tree(&[(0, 100, None), (0, 50, Some(0)), (0, 50, Some(1))]);
        let children = children_of(&spans);
        assert_eq!(self_time_ns(&spans, &children[0], 0), 50);
        assert_eq!(self_time_ns(&spans, &children[1], 1), 0);
    }

    #[test]
    fn tracer_nests_timed_calls() {
        let mut tracer = Tracer::new();
        let root = tracer.begin("root", None, 7);
        let (value, child) = tracer.time("child", Some(root), 7, || 41 + 1);
        tracer.end(root);
        assert_eq!(value, 42);
        let spans = tracer.spans();
        assert_eq!(spans[child].parent, Some(root));
        assert!(spans[root].start_ns <= spans[child].start_ns);
        assert!(spans[child].end_ns <= spans[root].end_ns);
        let children = children_of(spans);
        assert_eq!(
            self_time_ns(spans, &children[root], root),
            spans[root].duration_ns() - spans[child].duration_ns()
        );
    }
}
