//! The in-memory metrics registry: the recorder tests assert against and
//! the source every sink snapshots from.
//!
//! Every metric is a family: its name maps to a capped set of series,
//! one per [`LabelSet`], and an unlabeled update is the series under the
//! empty set. Hot-path updates are lock-free: each series is an atomic
//! cell (or a bank of atomic buckets for distributions). The registry
//! maps only pay a read-lock on lookup and a write-lock the first time
//! a name or label set is seen.

use crate::clock::{Clock, MonotonicClock};
use crate::forensics::DecisionRecord;
use crate::labels::LabelSet;
use crate::recorder::{FieldValue, Recorder};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Number of power-of-two distribution buckets.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// Offset applied to the base-2 exponent when bucketing, so values from
/// `2^-32` up to `2^31` land in distinct buckets.
const EXPONENT_OFFSET: i64 = 32;

/// Upper bound (exclusive) of bucket `i`: `2^(i − 31)`.
fn bucket_upper_bound(i: usize) -> f64 {
    2f64.powi(i as i32 - (EXPONENT_OFFSET as i32 - 1))
}

fn bucket_index(value: f64) -> usize {
    if value.is_nan() || value <= 0.0 {
        // Zero, negatives and NaN all collapse into the lowest bucket.
        return 0;
    }
    // `as i64` saturates for ±∞, so the saturating add keeps every
    // pathological input inside the bucket range.
    let e = (value.log2().floor() as i64).saturating_add(EXPONENT_OFFSET);
    e.clamp(0, HISTOGRAM_BUCKETS as i64 - 1) as usize
}

/// Atomically adds `delta` to an `f64` stored as bits in an [`AtomicU64`].
fn atomic_f64_add(cell: &AtomicU64, delta: f64) {
    let mut current = cell.load(Ordering::Relaxed);
    loop {
        let next = f64::from_bits(current) + delta;
        match cell.compare_exchange_weak(
            current,
            next.to_bits(),
            Ordering::Relaxed,
            Ordering::Relaxed,
        ) {
            Ok(_) => return,
            Err(seen) => current = seen,
        }
    }
}

/// Atomically folds `value` into an `f64` min/max cell.
fn atomic_f64_fold(cell: &AtomicU64, value: f64, pick: fn(f64, f64) -> f64) {
    let mut current = cell.load(Ordering::Relaxed);
    loop {
        let folded = pick(f64::from_bits(current), value);
        if folded.to_bits() == current {
            return;
        }
        match cell.compare_exchange_weak(
            current,
            folded.to_bits(),
            Ordering::Relaxed,
            Ordering::Relaxed,
        ) {
            Ok(_) => return,
            Err(seen) => current = seen,
        }
    }
}

/// A lock-free distribution: count, sum, min, max and 64 power-of-two
/// buckets, all atomics.
#[derive(Debug)]
pub struct AtomicHistogram {
    count: AtomicU64,
    sum_bits: AtomicU64,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        Self {
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl AtomicHistogram {
    /// Records one sample.
    pub fn record(&self, value: f64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        atomic_f64_add(&self.sum_bits, value);
        atomic_f64_fold(&self.min_bits, value, f64::min);
        atomic_f64_fold(&self.max_bits, value, f64::max);
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of the distribution.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        HistogramSnapshot {
            count,
            sum: f64::from_bits(self.sum_bits.load(Ordering::Relaxed)),
            min: f64::from_bits(self.min_bits.load(Ordering::Relaxed)),
            max: f64::from_bits(self.max_bits.load(Ordering::Relaxed)),
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter_map(|(i, c)| {
                    let n = c.load(Ordering::Relaxed);
                    (n > 0).then(|| (bucket_upper_bound(i), n))
                })
                .collect(),
        }
    }
}

/// A point-in-time copy of one distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: f64,
    /// Smallest sample (`+∞` when empty).
    pub min: f64,
    /// Largest sample (`−∞` when empty).
    pub max: f64,
    /// `(upper_bound, count)` for every non-empty power-of-two bucket,
    /// ascending.
    pub buckets: Vec<(f64, u64)>,
}

impl HistogramSnapshot {
    /// Mean sample, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) estimated from the cumulative
    /// bucket counts: the upper bound of the first bucket whose
    /// cumulative count reaches `q · count`, clamped into the observed
    /// `[min, max]` range so power-of-two bucket edges never report a
    /// value outside what was actually recorded. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (upper, n) in &self.buckets {
            cumulative += n;
            if cumulative >= target {
                return upper.clamp(self.min, self.max);
            }
        }
        self.max
    }
}

/// One structured event (a completed span, an alarm, a run marker).
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Clock reading when the event was recorded.
    pub ts_ns: u64,
    /// Event kind (`span`, `alarm`, …).
    pub kind: String,
    /// Typed payload fields, in recording order.
    pub fields: Vec<(String, FieldValue)>,
}

/// A point-in-time copy of the whole registry. Metric maps go family
/// name → label set → value; an unlabeled metric is the series under
/// the empty [`LabelSet`].
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Counter series.
    pub counters: BTreeMap<String, BTreeMap<LabelSet, u64>>,
    /// Gauge series.
    pub gauges: BTreeMap<String, BTreeMap<LabelSet, f64>>,
    /// Distribution series.
    pub histograms: BTreeMap<String, BTreeMap<LabelSet, HistogramSnapshot>>,
    /// Completed-span duration distributions (nanoseconds) by span path.
    pub spans: BTreeMap<String, HistogramSnapshot>,
    /// Updates routed to a family's overflow bucket because the
    /// per-family series cap was reached.
    pub series_overflowed: u64,
    /// Events dropped because the bounded event log was full.
    pub events_dropped: u64,
    /// Decision records dropped because the bounded decision log was
    /// full.
    pub decisions_dropped: u64,
}

/// One metric family: a capped map from label set to atomic cell.
/// Lookups pay a read-lock; the write-lock is only taken the first time
/// a label set is seen.
#[derive(Debug, Default)]
struct Family<V> {
    series: RwLock<BTreeMap<LabelSet, Arc<V>>>,
}

/// Name → family map of one metric kind.
type Families<V> = RwLock<BTreeMap<String, Arc<Family<V>>>>;

impl<V: Default> Family<V> {
    fn cell(&self, labels: &LabelSet, cap: usize, overflowed: &AtomicU64) -> Arc<V> {
        if let Some(c) = self
            .series
            .read()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .get(labels)
        {
            return Arc::clone(c);
        }
        let mut w = self
            .series
            .write()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if let Some(c) = w.get(labels) {
            return Arc::clone(c);
        }
        // At the cardinality cap, previously-unseen label sets share the
        // reserved overflow bucket instead of growing the map.
        if w.len() >= cap && !labels.is_overflow() {
            overflowed.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(w.entry(LabelSet::overflow()).or_default());
        }
        Arc::clone(w.entry(labels.clone()).or_default())
    }

    fn snapshot<T>(&self, read: impl Fn(&V) -> T) -> BTreeMap<LabelSet, T> {
        self.series
            .read()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .iter()
            .map(|(k, v)| (k.clone(), read(v)))
            .collect()
    }
}

/// The bundled [`Recorder`]: everything lands in process memory, ready
/// for [`Snapshot`]-based assertions and for the Prometheus/JSONL sinks.
#[derive(Debug)]
pub struct InMemoryRecorder {
    clock: Box<dyn Clock>,
    counters: Families<AtomicU64>,
    gauges: Families<AtomicU64>,
    histograms: Families<AtomicHistogram>,
    spans: RwLock<BTreeMap<String, Arc<AtomicHistogram>>>,
    series_overflowed: AtomicU64,
    series_cap: usize,
    events: Mutex<Vec<Event>>,
    events_dropped: AtomicU64,
    event_capacity: usize,
    decisions: Mutex<Vec<DecisionRecord>>,
    decisions_dropped: AtomicU64,
    decision_capacity: usize,
}

impl Default for InMemoryRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl InMemoryRecorder {
    /// Default bound on the in-memory event log.
    pub const DEFAULT_EVENT_CAPACITY: usize = 65_536;

    /// Default bound on distinct label sets per metric family (the
    /// overflow bucket rides on top of the cap).
    pub const DEFAULT_SERIES_CAP: usize = 128;

    /// Default bound on the in-memory decision log.
    pub const DEFAULT_DECISION_CAPACITY: usize = 65_536;

    /// Creates a registry stamped by a fresh [`MonotonicClock`].
    pub fn new() -> Self {
        Self::with_clock(Box::new(MonotonicClock::new()))
    }

    /// Creates a registry stamped by an injected clock — pass a
    /// [`crate::clock::ManualClock`] to make recorded values
    /// deterministic.
    pub fn with_clock(clock: Box<dyn Clock>) -> Self {
        Self {
            clock,
            counters: RwLock::new(BTreeMap::new()),
            gauges: RwLock::new(BTreeMap::new()),
            histograms: RwLock::new(BTreeMap::new()),
            spans: RwLock::new(BTreeMap::new()),
            series_overflowed: AtomicU64::new(0),
            series_cap: Self::DEFAULT_SERIES_CAP,
            events: Mutex::new(Vec::new()),
            events_dropped: AtomicU64::new(0),
            event_capacity: Self::DEFAULT_EVENT_CAPACITY,
            decisions: Mutex::new(Vec::new()),
            decisions_dropped: AtomicU64::new(0),
            decision_capacity: Self::DEFAULT_DECISION_CAPACITY,
        }
    }

    /// Overrides the event-log bound.
    pub fn with_event_capacity(mut self, capacity: usize) -> Self {
        self.event_capacity = capacity;
        self
    }

    /// Overrides the per-family series cap (clamped ≥ 1).
    pub fn with_series_cap(mut self, cap: usize) -> Self {
        self.series_cap = cap.max(1);
        self
    }

    /// Overrides the decision-log bound.
    pub fn with_decision_capacity(mut self, capacity: usize) -> Self {
        self.decision_capacity = capacity;
        self
    }

    fn cell<V: Default>(map: &RwLock<BTreeMap<String, Arc<V>>>, name: &str) -> Arc<V> {
        if let Some(c) = map
            .read()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .get(name)
        {
            return Arc::clone(c);
        }
        let mut w = map.write().unwrap_or_else(|poisoned| poisoned.into_inner());
        Arc::clone(w.entry(name.to_string()).or_default())
    }

    fn push_event(&self, ts_ns: u64, kind: &str, fields: Vec<(String, FieldValue)>) {
        let mut log = self
            .events
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if log.len() >= self.event_capacity {
            self.events_dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        log.push(Event {
            ts_ns,
            kind: kind.to_string(),
            fields,
        });
    }

    /// A point-in-time copy of every metric.
    pub fn snapshot(&self) -> Snapshot {
        let spans = self
            .spans
            .read()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect();
        Snapshot {
            counters: Self::families(&self.counters, |c| c.load(Ordering::Relaxed)),
            gauges: Self::families(&self.gauges, |c| f64::from_bits(c.load(Ordering::Relaxed))),
            histograms: Self::families(&self.histograms, AtomicHistogram::snapshot),
            spans,
            series_overflowed: self.series_overflowed.load(Ordering::Relaxed),
            events_dropped: self.events_dropped.load(Ordering::Relaxed),
            decisions_dropped: self.decisions_dropped.load(Ordering::Relaxed),
        }
    }

    fn families<V: Default, T>(
        map: &Families<V>,
        read: impl Fn(&V) -> T,
    ) -> BTreeMap<String, BTreeMap<LabelSet, T>> {
        map.read()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .iter()
            .map(|(k, f)| (k.clone(), f.snapshot(&read)))
            .collect()
    }

    /// A copy of the event log, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.events
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .clone()
    }

    /// A copy of the decision log, oldest first.
    pub fn decisions(&self) -> Vec<DecisionRecord> {
        self.decisions
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .clone()
    }

    /// The per-family series cap.
    pub fn series_cap(&self) -> usize {
        self.series_cap
    }
}

impl Recorder for InMemoryRecorder {
    fn clock(&self) -> &dyn Clock {
        &*self.clock
    }

    fn span_complete(&self, path: &str, start_ns: u64, elapsed_ns: u64) {
        Self::cell(&self.spans, path).record(elapsed_ns as f64);
        self.push_event(
            start_ns,
            "span",
            vec![
                ("path".to_string(), FieldValue::Str(path.to_string())),
                ("elapsed_ns".to_string(), FieldValue::U64(elapsed_ns)),
            ],
        );
    }

    fn event(&self, kind: &str, fields: &[(&str, FieldValue)]) {
        let ts = self.clock.now_ns();
        self.push_event(
            ts,
            kind,
            fields
                .iter()
                .map(|(k, v)| ((*k).to_string(), v.clone()))
                .collect(),
        );
    }

    fn counter_with(&self, name: &str, labels: &LabelSet, delta: u64) {
        Self::cell(&self.counters, name)
            .cell(labels, self.series_cap, &self.series_overflowed)
            .fetch_add(delta, Ordering::Relaxed);
    }

    fn gauge_with(&self, name: &str, labels: &LabelSet, value: f64) {
        Self::cell(&self.gauges, name)
            .cell(labels, self.series_cap, &self.series_overflowed)
            .store(value.to_bits(), Ordering::Relaxed);
    }

    fn observe_with(&self, name: &str, labels: &LabelSet, value: f64) {
        Self::cell(&self.histograms, name)
            .cell(labels, self.series_cap, &self.series_overflowed)
            .record(value);
    }

    fn decision(&self, record: &DecisionRecord) {
        let mut log = self
            .decisions
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if log.len() >= self.decision_capacity {
            self.decisions_dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        log.push(record.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;

    const NONE: LabelSet = LabelSet::new();

    #[test]
    fn counters_gauges_and_histograms_round_trip() {
        let r = InMemoryRecorder::new();
        r.counter_with("traces", &NONE, 3);
        r.counter_with("traces", &NONE, 2);
        r.gauge_with("threshold", &NONE, 0.015);
        r.gauge_with("threshold", &NONE, 0.017);
        r.observe_with("distance", &NONE, 0.5);
        r.observe_with("distance", &NONE, 2.0);
        let s = r.snapshot();
        assert_eq!(s.counters["traces"][&NONE], 5);
        assert_eq!(s.gauges["threshold"][&NONE], 0.017);
        let h = &s.histograms["distance"][&NONE];
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 2.5);
        assert_eq!(h.min, 0.5);
        assert_eq!(h.max, 2.0);
        assert_eq!(h.mean(), 1.25);
        // A labeled update is a second series of the same family.
        let chip = LabelSet::from_pairs([("chip_id", "c0")]);
        r.counter_with("traces", &chip, 4);
        let family = &r.snapshot().counters["traces"];
        assert_eq!(family.len(), 2);
        assert_eq!(family.values().sum::<u64>(), 9);
    }

    #[test]
    fn bucket_indexing_separates_magnitudes() {
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(-1.0), 0);
        assert_eq!(bucket_index(f64::NAN), 0);
        assert!(bucket_index(1e-3) < bucket_index(1.0));
        assert!(bucket_index(1.0) < bucket_index(1e6));
        assert_eq!(bucket_index(f64::INFINITY), HISTOGRAM_BUCKETS - 1);
        // Bucket upper bounds bracket the sample.
        let v = 1234.5;
        let i = bucket_index(v);
        assert!(v < bucket_upper_bound(i));
        assert!(v >= bucket_upper_bound(i) / 2.0);
    }

    #[test]
    fn spans_record_into_path_distributions_and_events() {
        let r = InMemoryRecorder::with_clock(Box::new(ManualClock::new(100)));
        r.span_complete("collect.measure", 0, 400);
        r.span_complete("collect.measure", 400, 200);
        let s = r.snapshot();
        assert_eq!(s.spans["collect.measure"].count, 2);
        assert_eq!(s.spans["collect.measure"].sum, 600.0);
        let events = r.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, "span");
    }

    #[test]
    fn event_log_is_bounded() {
        let r = InMemoryRecorder::new().with_event_capacity(2);
        r.event("a", &[]);
        r.event("b", &[]);
        r.event("c", &[]);
        assert_eq!(r.events().len(), 2);
        assert_eq!(r.snapshot().events_dropped, 1);
    }

    #[test]
    fn concurrent_updates_lose_nothing() {
        let r = std::sync::Arc::new(InMemoryRecorder::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let r = std::sync::Arc::clone(&r);
                s.spawn(move || {
                    for i in 0..1000 {
                        r.counter_with("n", &NONE, 1);
                        r.observe_with("v", &NONE, i as f64);
                    }
                });
            }
        });
        let snap = r.snapshot();
        assert_eq!(snap.counters["n"][&NONE], 4000);
        assert_eq!(snap.histograms["v"][&NONE].count, 4000);
    }

    #[test]
    fn bucket_edges_land_deterministically() {
        // A value exactly on a power-of-two edge must always land in the
        // bucket whose *lower* bound it is: bucket i covers
        // [2^(i−32), 2^(i−31)), half-open.
        for k in [-8i32, -1, 0, 1, 3, 10, 20] {
            let edge = 2f64.powi(k);
            let i = bucket_index(edge);
            assert_eq!(
                i,
                (k as i64 + EXPONENT_OFFSET) as usize,
                "edge 2^{k} drifted"
            );
            // The edge is *inside* bucket i, not the last value of i−1.
            assert!(edge >= bucket_upper_bound(i) / 2.0);
            assert!(edge < bucket_upper_bound(i));
            // The value just below the edge lands one bucket down; the
            // value just above stays put.
            assert_eq!(bucket_index(edge * (1.0 - 1e-12)), i - 1);
            assert_eq!(bucket_index(edge * (1.0 + 1e-12)), i);
        }
        // Repeated classification of the same edge value never flickers.
        let probes: Vec<usize> = (0..1000).map(|_| bucket_index(1.0)).collect();
        assert!(probes.iter().all(|&i| i == EXPONENT_OFFSET as usize));
    }

    #[test]
    fn snapshot_under_concurrent_records_loses_no_counts() {
        use std::sync::atomic::AtomicBool;
        let r = std::sync::Arc::new(InMemoryRecorder::new());
        let done = AtomicBool::new(false);
        let writers = 4usize;
        let per_writer = 5000usize;
        std::thread::scope(|s| {
            for w in 0..writers {
                let r = std::sync::Arc::clone(&r);
                s.spawn(move || {
                    for i in 0..per_writer {
                        // Hit bucket edges on purpose.
                        let v = 2f64.powi((i % 8) as i32 - 4 + (w as i32 % 2));
                        r.observe_with("edge", &NONE, v);
                    }
                });
            }
            // Snapshot continuously while the writers hammer: every
            // snapshot must be internally monotone (count never exceeds
            // the bucket total by more than in-flight writers) and never
            // panic.
            let mut last_count = 0u64;
            while !done.load(Ordering::Relaxed) {
                if let Some(h) = r
                    .snapshot()
                    .histograms
                    .get("edge")
                    .and_then(|f| f.get(&NONE))
                {
                    assert!(h.count >= last_count, "count went backwards");
                    last_count = h.count;
                }
                if last_count >= (writers * per_writer) as u64 {
                    done.store(true, Ordering::Relaxed);
                }
            }
        });
        // Quiescent snapshot: nothing lost, buckets sum to the count.
        let h = r.snapshot().histograms["edge"][&NONE].clone();
        assert_eq!(h.count, (writers * per_writer) as u64);
        let bucket_total: u64 = h.buckets.iter().map(|(_, n)| n).sum();
        assert_eq!(bucket_total, h.count);
    }

    #[test]
    fn quantiles_track_the_distribution() {
        let h = AtomicHistogram::default();
        for i in 1..=100u32 {
            h.record(i as f64);
        }
        let s = h.snapshot();
        let (p50, p95, p99) = (s.quantile(0.50), s.quantile(0.95), s.quantile(0.99));
        assert!(p50 <= p95 && p95 <= p99, "{p50} {p95} {p99}");
        // Power-of-two buckets: the answer is an upper bound within 2×.
        assert!((32.0..=64.0).contains(&p50), "p50={p50}");
        assert!((95.0..=100.0).contains(&p99), "p99={p99}");
        assert_eq!(AtomicHistogram::default().snapshot().quantile(0.5), 0.0);
    }

    #[test]
    fn labeled_series_cap_routes_excess_to_the_overflow_bucket() {
        let r = InMemoryRecorder::new().with_series_cap(4);
        for i in 0..100 {
            let labels = LabelSet::from_pairs([("chip_id", format!("c{i}"))]);
            r.counter_with("fleet.traces", &labels, 1);
        }
        let snap = r.snapshot();
        let family = &snap.counters["fleet.traces"];
        // 4 real series + the shared overflow bucket.
        assert_eq!(family.len(), 5);
        assert_eq!(family[&LabelSet::overflow()], 96);
        assert_eq!(snap.series_overflowed, 96);
        // Existing series keep updating in place at the cap.
        r.counter_with(
            "fleet.traces",
            &LabelSet::from_pairs([("chip_id", "c0")]),
            10,
        );
        let snap = r.snapshot();
        assert_eq!(
            snap.counters["fleet.traces"][&LabelSet::from_pairs([("chip_id", "c0")])],
            11
        );
    }

    #[test]
    fn labeled_gauges_and_histograms_round_trip() {
        let r = InMemoryRecorder::new();
        let tile = LabelSet::from_pairs([("tile", "r0c0")]);
        r.gauge_with("tile.threshold", &tile, 0.25);
        r.gauge_with("tile.threshold", &tile, 0.5);
        r.observe_with("tile.margin", &tile, 1.0);
        r.observe_with("tile.margin", &tile, 3.0);
        let snap = r.snapshot();
        assert_eq!(snap.gauges["tile.threshold"][&tile], 0.5);
        let h = &snap.histograms["tile.margin"][&tile];
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 4.0);
        assert_eq!(snap.series_overflowed, 0);
    }

    #[test]
    fn decision_log_is_bounded() {
        let r = InMemoryRecorder::new().with_decision_capacity(2);
        for _ in 0..3 {
            r.decision(&DecisionRecord::new("trace"));
        }
        assert_eq!(r.decisions().len(), 2);
        assert_eq!(r.snapshot().decisions_dropped, 1);
    }
}
