//! In-memory span recording for the traced run.
//!
//! Spans are taken around the benchmark's own calls into each crate's
//! public functions; nothing inside the program is instrumented. Every
//! span has a name (`layer.operation`), a start and an end relative to
//! the tracer's origin, the index of its parent span, and an id shared
//! by the spans of one trace, window or batch.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `layer.operation`, e.g. `sim.encrypt`.
    pub name: &'static str,
    /// The trace, window or batch this span worked on.
    pub id: u64,
    /// Index of the parent span, `None` for a pass root.
    pub parent: Option<usize>,
    /// Start, nanoseconds after the tracer's origin.
    pub start_ns: u64,
    /// End, nanoseconds after the tracer's origin.
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans from any number of threads.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("span buffer lock poisoned by a panicking worker")
    }

    fn open(&self, name: &'static str, id: u64, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        let mut spans = self.lock();
        spans.push(Span {
            name,
            id,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        spans.len() - 1
    }

    fn close(&self, index: usize) {
        let end_ns = self.now_ns();
        self.lock()[index].end_ns = end_ns;
    }

    /// Runs `f` inside a root span and returns its result. A measured
    /// pass is a root named `pass`; work replayed to split layers runs
    /// under roots of its own.
    pub fn root<R>(&self, name: &'static str, id: u64, f: impl FnOnce(Trace<'_>) -> R) -> R {
        let root = self.open(name, id, None);
        let out = f(Trace {
            tracer: Some(self),
            parent: root,
        });
        self.close(root);
        out
    }

    /// Removes and returns every span recorded so far.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.lock())
    }
}

/// A handle for opening spans under a parent; a no-op when tracing is
/// off. It is `Copy` and `Sync`, so worker threads can use it directly.
#[derive(Debug, Clone, Copy)]
pub struct Trace<'a> {
    tracer: Option<&'a Tracer>,
    parent: usize,
}

impl Trace<'static> {
    /// Tracing off: every span runs its closure and records nothing.
    pub const OFF: Trace<'static> = Trace {
        tracer: None,
        parent: 0,
    };
}

impl<'a> Trace<'a> {
    /// Runs `f` inside a span named `name` for trace/batch `id`; `f`
    /// receives the handle for spans nested below this one.
    pub fn span<R>(&self, name: &'static str, id: u64, f: impl FnOnce(Trace<'a>) -> R) -> R {
        match self.tracer {
            None => f(*self),
            Some(tracer) => {
                let index = tracer.open(name, id, Some(self.parent));
                let out = f(Trace {
                    tracer: Some(tracer),
                    parent: index,
                });
                tracer.close(index);
                out
            }
        }
    }
}

/// Per-pass totals derived from one pass's spans.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PassProfile {
    /// Self time per span name, seconds (duration minus the part of its
    /// interval that its children cover).
    pub self_s: BTreeMap<&'static str, f64>,
    /// Share of the root's wall time that no non-root span covers.
    pub unspanned_frac: f64,
}

impl PassProfile {
    /// Self time summed over every span name of `layer`.
    pub fn layer_s(&self, layer: &str) -> f64 {
        self.self_s
            .iter()
            .filter(|(name, _)| name.split('.').next() == Some(layer))
            .map(|(_, s)| s)
            .fold(0.0, |a, b| a + b)
    }

    /// Self time of one span name (0 when it never ran).
    pub fn name_s(&self, name: &str) -> f64 {
        self.self_s.get(name).copied().unwrap_or(0.0)
    }
}

/// Profiles the spans of one pass: the `pass` root and any replay
/// roots after it. Coverage is taken over the `pass` root only.
pub fn profile(spans: &[Span]) -> PassProfile {
    let Some(root) = spans.iter().find(|s| s.name == "pass") else {
        return PassProfile::default();
    };
    let mut children: BTreeMap<usize, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out = PassProfile::default();
    for (i, s) in spans.iter().enumerate() {
        if s.parent.is_none() {
            continue;
        }
        let covered = children
            .get(&i)
            .map_or(0, |c| union_ns(c, s.start_ns, s.end_ns));
        let self_ns = s.duration_ns().saturating_sub(covered);
        *out.self_s.entry(s.name).or_default() += self_ns as f64 * 1e-9;
    }
    let all: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent.is_some())
        .map(|s| (s.start_ns, s.end_ns))
        .collect();
    let covered = union_ns(&all, root.start_ns, root.end_ns);
    let wall = root.duration_ns().max(1);
    out.unspanned_frac = 1.0 - covered as f64 / wall as f64;
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_ns(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| a < b)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (a, b) in clipped {
        current = match current {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = current {
        total += cb - ca;
    }
    total
}

/// Writes `spans` as JSON lines, one span per line, tagged with `pass`.
pub fn write_jsonl(out: &mut impl Write, pass: u64, spans: &[Span]) -> std::io::Result<()> {
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"pass\":{pass},\"name\":\"{}\",\"id\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.id, s.start_ns, s.end_ns
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            id: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn union_merges_overlaps_and_clips() {
        assert_eq!(union_ns(&[], 0, 10), 0);
        assert_eq!(union_ns(&[(0, 4), (2, 6), (8, 9)], 0, 10), 7);
        assert_eq!(union_ns(&[(0, 40)], 10, 20), 10);
        assert_eq!(union_ns(&[(5, 5), (30, 40)], 0, 20), 0);
    }

    #[test]
    fn self_time_subtracts_children_and_coverage_counts_gaps() {
        let spans = vec![
            span("pass", None, 0, 100),
            span("sim.encrypt", Some(0), 0, 40),
            span("core.ingest", Some(0), 50, 90),
            // Two overlapping children (parallel workers) of core.ingest.
            span("core.sanitize", Some(2), 50, 60),
            span("core.sanitize", Some(2), 55, 70),
        ];
        let p = profile(&spans);
        let ns = 1e-9;
        assert!((p.name_s("sim.encrypt") - 40.0 * ns).abs() < 1e-15);
        assert!((p.name_s("core.ingest") - 20.0 * ns).abs() < 1e-15);
        assert!((p.name_s("core.sanitize") - 25.0 * ns).abs() < 1e-15);
        assert!((p.layer_s("core") - 45.0 * ns).abs() < 1e-15);
        assert!((p.unspanned_frac - 0.2).abs() < 1e-12);
    }

    #[test]
    fn tracer_records_nested_spans_across_threads() {
        let tracer = Tracer::new();
        tracer.root("pass", 7, |t| {
            t.span("sim.encrypt", 1, |inner| {
                inner.span("power.synthesize", 1, |_| ())
            });
            std::thread::scope(|s| {
                s.spawn(|| t.span("em.measure", 2, |_| ()));
            });
        });
        let spans = tracer.take();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].name, "pass");
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[3].parent, Some(0));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(tracer.take().is_empty());
        let mut buf = Vec::new();
        write_jsonl(&mut buf, 3, &spans).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 4);
        assert!(text.starts_with("{\"pass\":3,\"name\":\"pass\",\"id\":7,\"parent\":null"));
        // Tracing off runs the closure and records nothing.
        assert_eq!(Trace::OFF.span("sim.encrypt", 0, |_| 5), 5);
    }
}
