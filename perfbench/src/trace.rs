//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around each call it
//! makes into a layer of the system. A disabled tracer records nothing and
//! only runs the wrapped closure, so the untraced run pays no bookkeeping.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span, used as the parent of nested spans.
pub type SpanId = usize;

/// One recorded call: name, start and end (ns since the tracer's epoch),
/// the span that caused it, and the request it belongs to.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub request: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name aggregate over every span of that name.
#[derive(Debug, Clone, Copy, Default)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span that is closed later with [`close`](Tracer::close).
    /// Returns `None` when tracing is off.
    pub fn open(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<SpanId>,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        Some(self.spans.len() - 1)
    }

    pub fn close(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, request, parent);
        let out = f();
        self.close(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The direct children of every span.
    fn children(&self) -> Vec<Vec<SpanId>> {
        let mut children = vec![Vec::new(); self.spans.len()];
        for (id, span) in self.spans.iter().enumerate() {
            if let Some(parent) = span.parent {
                children[parent].push(id);
            }
        }
        children
    }

    /// Length of the union of `children`'s intervals, clipped to span `id`.
    fn covered_ns(&self, id: SpanId, children: &[SpanId]) -> u64 {
        let span = &self.spans[id];
        let mut intervals: Vec<(u64, u64)> = children
            .iter()
            .map(|&c| {
                let child = &self.spans[c];
                (
                    child.start_ns.max(span.start_ns),
                    child.end_ns.min(span.end_ns),
                )
            })
            .filter(|(s, e)| e > s)
            .collect();
        intervals.sort_unstable();
        let (mut covered, mut reach) = (0u64, 0u64);
        for (s, e) in intervals {
            let s = s.max(reach);
            if e > s {
                covered += e - s;
                reach = e;
            }
        }
        covered
    }

    /// Count, total time and self time per span name. Self time is a
    /// span's duration minus the part of it its child spans cover.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let children = self.children();
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (id, span) in self.spans.iter().enumerate() {
            let entry = out.entry(span.name).or_default();
            entry.count += 1;
            entry.total_ns += span.dur_ns();
            entry.self_ns += span.dur_ns() - self.covered_ns(id, &children[id]);
        }
        out
    }

    /// Sum of the durations of every span named `name`, in ms.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold(0.0, |ms, s| ms + s.dur_ns() as f64 / 1e6)
    }

    /// Share of the spans named `root` that their direct children cover,
    /// over every such span.
    pub fn coverage(&self, root: &str) -> f64 {
        let children = self.children();
        let (mut total, mut covered) = (0u64, 0u64);
        for (id, span) in self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == root)
        {
            total += span.dur_ns();
            covered += self.covered_ns(id, &children[id]);
        }
        if total == 0 {
            0.0
        } else {
            covered as f64 / total as f64
        }
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"request\": {}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }

    /// The per-layer table: one row per span name, sorted by self time.
    pub fn table(&self, requests: u64) -> String {
        let totals = self.totals();
        let mut rows: Vec<_> = totals.into_iter().collect();
        rows.sort_by_key(|row| std::cmp::Reverse(row.1.self_ns));
        let per_req = requests.max(1) as f64;
        let mut text = format!(
            "{:<24} {:>8} {:>14} {:>14}\n",
            "span", "count", "total ms/req", "self ms/req"
        );
        for (name, t) in rows {
            text.push_str(&format!(
                "{:<24} {:>8} {:>14.3} {:>14.3}\n",
                name,
                t.count,
                t.total_ns as f64 / 1e6 / per_req,
                t.self_ns as f64 / 1e6 / per_req
            ));
        }
        text
    }
}
