//! In-memory span recorder for the traced run.
//!
//! A span has a name, start, end, parent and batch id. Spans are kept in
//! memory while the run measures and written out once it ends; self time
//! (duration minus the part of the interval child spans cover) is derived
//! afterwards.

use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Id of the implicit root (spans without a parent).
pub const ROOT: u64 = 0;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub batch: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans from any thread, against one monotonic epoch.
pub struct Tracer {
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next: AtomicU64::new(ROOT + 1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the tracer's epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Reserves a span id (so children can name their parent before the
    /// parent span closes).
    pub fn id(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a finished span under a reserved `id`.
    pub fn record(&self, id: u64, parent: u64, batch: u64, name: &'static str, start_ns: u64) {
        let end_ns = self.now();
        self.spans.lock().push(Span {
            id,
            parent,
            batch,
            name,
            start_ns,
            end_ns,
        });
    }

    /// Runs `f` inside a new span and returns its result.
    pub fn span<T>(&self, parent: u64, batch: u64, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.id();
        let start = self.now();
        let out = f();
        self.record(id, parent, batch, name, start);
        out
    }

    /// Runs `f` inside a new span whose id `f` receives (for children).
    pub fn scope<T>(
        &self,
        parent: u64,
        batch: u64,
        name: &'static str,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        let id = self.id();
        let start = self.now();
        let out = f(id);
        self.record(id, parent, batch, name, start);
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().clone()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<usize> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let spans = self.spans();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"batch\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.batch, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()?;
        Ok(spans.len())
    }
}

/// Per-name totals: `(count, total duration ns, total self time ns)`.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let self_ns = self_times(spans);
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.duration_ns();
        e.2 += self_ns.get(&s.id).copied().unwrap_or(0);
    }
    out
}

/// Self time of every span: its duration minus the union of the
/// intervals its direct children cover (clipped to the span).
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .get(&s.id)
                .map_or(0, |c| union_within(c, s.start_ns, s.end_ns));
            (s.id, s.duration_ns().saturating_sub(covered))
        })
        .collect()
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn union_within(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut v: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| a < b)
        .collect();
    v.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in v {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            batch: 0,
            name: "t",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, ROOT, 0, 100),
            span(2, 1, 10, 30),
            span(3, 1, 20, 40),  // overlaps 2: union is 10..40
            span(4, 1, 90, 150), // clipped to the parent's end
            span(5, 2, 10, 30),  // grandchild: not subtracted from 1
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 100 - 30 - 10);
        assert_eq!(st[&2], 0);
        assert_eq!(st[&3], 20);
    }

    #[test]
    fn totals_group_by_name() {
        let t = Tracer::new();
        let v = t.scope(ROOT, 7, "outer", |id| t.span(id, 7, "inner", || 42));
        assert_eq!(v, 42);
        let tot = totals(&t.spans());
        assert_eq!(tot["outer"].0, 1);
        assert_eq!(tot["inner"].0, 1);
        assert!(tot["outer"].1 >= tot["inner"].1);
    }
}
