//! In-memory span recording around calls into each layer's public functions.
//!
//! A span records a name, a start and end (nanoseconds since the tracer's epoch, host
//! time), the span that caused it and what it worked on. Spans stay in memory while the
//! workload runs and are written out as JSONL at the end. A disabled tracer records
//! nothing: `open` returns `None` and `close(None)` does nothing.

use bsm_engine::ScenarioSpec;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

/// What a span worked on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Label {
    /// Nothing in particular.
    None,
    /// A measured repetition of the workload unit.
    Rep(usize),
    /// A shard stream.
    Shard(usize),
    /// A campaign cell.
    Cell(ScenarioSpec),
    /// A fuzz search call (its seed).
    Search(u64),
}

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer boundary name.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer epoch.
    pub start: u64,
    /// End, in nanoseconds since the tracer epoch (equal to `start` while open).
    pub end: u64,
    /// The enclosing span.
    pub parent: Option<SpanId>,
    /// What the span worked on.
    pub label: Label,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn nanos(&self) -> u64 {
        self.end - self.start
    }
}

/// A span recorder; see the module docs.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    on: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records when `on` is set.
    pub fn new(on: bool) -> Self {
        Self { epoch: Instant::now(), on, spans: Vec::new() }
    }

    /// The instant span times are measured from, for spans recorded on other threads.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Opens a span (or does nothing when tracing is off).
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        label: Label,
    ) -> Option<SpanId> {
        if !self.on {
            return None;
        }
        let now = since(self.epoch);
        self.spans.push(Span { name, start: now, end: now, parent, label });
        Some(self.spans.len() - 1)
    }

    /// Closes a span opened by [`open`](Self::open).
    pub fn close(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            self.spans[id].end = since(self.epoch);
        }
    }

    /// Appends spans recorded elsewhere against [`epoch`](Self::epoch): their parent
    /// indices are local to `spans`, and local roots are attached under `parent`.
    pub fn adopt(&mut self, spans: Vec<Span>, parent: Option<SpanId>) {
        if !self.on {
            return;
        }
        let offset = self.spans.len();
        self.spans.extend(spans.into_iter().map(|span| Span {
            parent: span.parent.map(|local| local + offset).or(parent),
            ..span
        }));
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            let label = match span.label {
                Label::None => String::new(),
                Label::Rep(rep) => format!(", \"rep\": {rep}"),
                Label::Shard(shard) => format!(", \"shard\": {shard}"),
                Label::Cell(spec) => format!(", \"cell\": \"{spec}\""),
                Label::Search(seed) => format!(", \"search_seed\": {seed}"),
            };
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}{label}}}",
                span.name, span.start, span.end
            );
        }
        std::fs::write(path, out)
    }
}

/// Nanoseconds elapsed since `epoch`.
fn since(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Records spans on a worker thread against a shared epoch; hand the result to
/// [`Tracer::adopt`].
#[derive(Debug)]
pub struct LocalSpans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl LocalSpans {
    /// A recorder measuring from `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Self { epoch, spans: Vec::new() }
    }

    /// Runs `f` inside a span and returns its result.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        label: Label,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, label);
        let result = f();
        self.close(id);
        result
    }

    /// Opens a span.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, label: Label) -> SpanId {
        let now = since(self.epoch);
        self.spans.push(Span { name, start: now, end: now, parent, label });
        self.spans.len() - 1
    }

    /// Closes a span.
    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end = since(self.epoch);
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Each span's self time: its duration minus the part of its interval that its child
/// spans cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            children.entry(parent).or_default().push((span.start, span.end));
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(id, span)| {
            let mut covered = 0u64;
            if let Some(intervals) = children.get_mut(&id) {
                intervals.sort_unstable();
                let mut reach = span.start;
                for &(start, end) in intervals.iter() {
                    let (start, end) = (start.max(reach), end.min(span.end));
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
            }
            span.nanos() - covered
        })
        .collect()
}

/// The root ancestor of every span.
fn roots(spans: &[Span]) -> Vec<SpanId> {
    let mut root: Vec<SpanId> = Vec::with_capacity(spans.len());
    for (id, span) in spans.iter().enumerate() {
        // Parents are always recorded before their children.
        root.push(span.parent.map_or(id, |parent| root[parent]));
    }
    root
}

/// For every span name, its summed duration under each root span named `root_name`,
/// in root order (0 for a root without such spans).
pub fn totals_per_root(spans: &[Span], root_name: &str) -> BTreeMap<&'static str, Vec<u64>> {
    let root_of = roots(spans);
    let root_ids: Vec<SpanId> =
        spans.iter().enumerate().filter(|(_, s)| s.name == root_name).map(|(id, _)| id).collect();
    let position: BTreeMap<SpanId, usize> =
        root_ids.iter().enumerate().map(|(index, &id)| (id, index)).collect();
    let mut totals: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for (id, span) in spans.iter().enumerate() {
        if let Some(&index) = position.get(&root_of[id]) {
            totals.entry(span.name).or_insert_with(|| vec![0; root_ids.len()])[index] +=
                span.nanos();
        }
    }
    totals
}

/// The median over roots of `name`'s per-root total (see [`totals_per_root`]), in
/// seconds; 0 when no such span was recorded.
pub fn median_s(totals: &BTreeMap<&'static str, Vec<u64>>, name: &str) -> f64 {
    totals.get(name).map_or(0.0, |per_root| crate::stats::median_by(per_root, |&n| n as f64 / 1e9))
}

/// The share of the `rep` spans' time that no layer span covers: the self time of the
/// `rep` spans and of the `structural` spans under them, over the `rep` spans' time.
pub fn unattributed_share(spans: &[Span], structural: &[&str]) -> f64 {
    let (mut unattributed, mut whole) = (0u64, 0u64);
    for (span, own) in spans.iter().zip(self_times(spans)) {
        if span.name == "rep" {
            whole += span.nanos();
            unattributed += own;
        } else if structural.contains(&span.name) {
            unattributed += own;
        }
    }
    unattributed as f64 / whole.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span { name, start, end, parent, label: Label::None }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("rep", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 25, 50, Some(0)), // overlaps `a` by 5
            span("c", 60, 70, Some(0)),
            span("a.inner", 12, 20, Some(1)),
            span("late", 95, 130, Some(0)), // clipped to the parent's end
        ];
        let own = self_times(&spans);
        assert_eq!(own[0], 100 - (40 + 10 + 5));
        assert_eq!(own[1], 20 - 8);
        assert_eq!(own[2], 25);
        assert_eq!(own[4], 8);
    }

    #[test]
    fn totals_group_by_root() {
        let spans = vec![
            span("rep", 0, 100, None),
            span("x", 0, 10, Some(0)),
            span("x", 20, 25, Some(0)),
            span("rep", 100, 200, None),
            span("y", 100, 150, Some(3)),
            span("x", 150, 151, Some(4)),
        ];
        let totals = totals_per_root(&spans, "rep");
        assert_eq!(totals["x"], vec![15, 1]);
        assert_eq!(totals["y"], vec![0, 50]);
        assert_eq!(totals["rep"], vec![100, 100]);
        assert_eq!(median_s(&totals, "y"), 25e-9);
        assert_eq!(median_s(&totals, "absent"), 0.0);
        // rep 0 leaves 85 of 100 uncovered and rep 1 leaves 50; `y`'s child lies outside
        // `y`, so all 50 of `y` count as its own.
        assert_eq!(unattributed_share(&spans, &[]), (85.0 + 50.0) / 200.0);
        assert_eq!(unattributed_share(&spans, &["y"]), (85.0 + 50.0 + 50.0) / 200.0);
    }

    #[test]
    fn disabled_tracer_records_nothing_and_adopt_relinks_parents() {
        let mut off = Tracer::new(false);
        let id = off.open("rep", None, Label::None);
        off.close(id);
        assert!(id.is_none() && off.spans().is_empty());

        let mut on = Tracer::new(true);
        let root = on.open("replay", None, Label::None);
        let mut local = LocalSpans::new(on.epoch());
        let cell = local.open("cell", None, Label::None);
        local.time("core.harness.run", Some(cell), Label::None, || ());
        local.close(cell);
        on.adopt(local.into_spans(), root);
        on.close(root);
        let spans = on.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert!(spans[0].end >= spans[1].end);
    }
}
