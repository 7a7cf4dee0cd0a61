//! The [`Recorder`] trait and the zero-cost [`NullRecorder`] default.

use crate::clock::{Clock, ManualClock};
use crate::forensics::DecisionRecord;
use crate::labels::LabelSet;

/// A typed value attached to a structured event.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer payload (indices, ids, counts).
    U64(u64),
    /// Floating-point payload (distances, magnitudes, seconds).
    F64(f64),
    /// Text payload (stage names, alarm kinds).
    Str(String),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}

impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}

/// A telemetry backend: receives counters, gauges, distribution samples,
/// completed timing spans, and structured events from the pipeline.
///
/// Every metric update names a family and the series within it: the
/// [`LabelSet`] identifying it. An unlabeled metric is the series under
/// the empty set, so one family's series always add up to its total.
///
/// Implementations must be cheap and non-blocking on the metric paths —
/// the pipeline calls them from its hot loops and from pool worker
/// threads concurrently. The bundled [`InMemoryRecorder`] keeps every
/// primitive lock-free (atomics) once a series is registered.
///
/// [`InMemoryRecorder`]: crate::registry::InMemoryRecorder
pub trait Recorder: Send + Sync + std::fmt::Debug {
    /// The time source spans and events are stamped with.
    fn clock(&self) -> &dyn Clock;

    /// Adds `delta` to the counter `name` within the series identified
    /// by `labels`.
    fn counter_with(&self, name: &str, labels: &LabelSet, delta: u64);

    /// Sets the gauge `name` for the series identified by `labels`
    /// (last write wins).
    fn gauge_with(&self, name: &str, labels: &LabelSet, value: f64);

    /// Records one sample of the distribution `name` for the series
    /// identified by `labels`.
    fn observe_with(&self, name: &str, labels: &LabelSet, value: f64);

    /// Records a completed timing span. `path` is the dot-joined
    /// hierarchical span path (e.g. `collect.measure.emf`).
    fn span_complete(&self, path: &str, start_ns: u64, elapsed_ns: u64);

    /// Records a structured event (alarms, run markers). The default
    /// implementation drops it.
    fn event(&self, _kind: &str, _fields: &[(&str, FieldValue)]) {}

    /// Records one decision-forensics record. The default
    /// implementation drops it.
    fn decision(&self, _record: &DecisionRecord) {}
}

/// The default recorder: discards everything.
///
/// Pipeline instrumentation is gated on [`crate::is_enabled`] before any
/// recorder method is reached, so with no recorder installed the whole
/// telemetry layer costs one relaxed atomic load per instrumentation
/// point.
#[derive(Debug, Default)]
pub struct NullRecorder {
    clock: ManualClock,
}

impl NullRecorder {
    /// Creates a null recorder.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Recorder for NullRecorder {
    fn clock(&self) -> &dyn Clock {
        &self.clock
    }

    fn counter_with(&self, _name: &str, _labels: &LabelSet, _delta: u64) {}

    fn gauge_with(&self, _name: &str, _labels: &LabelSet, _value: f64) {}

    fn observe_with(&self, _name: &str, _labels: &LabelSet, _value: f64) {}

    fn span_complete(&self, _path: &str, _start_ns: u64, _elapsed_ns: u64) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_recorder_accepts_everything_silently() {
        let r = NullRecorder::new();
        r.span_complete("a.b", 0, 10);
        r.event("e", &[("k", FieldValue::U64(1))]);
        let labels = LabelSet::from_pairs([("chip_id", "c0")]);
        r.counter_with("c", &LabelSet::new(), 1);
        r.counter_with("c", &labels, 1);
        r.gauge_with("g", &labels, 2.0);
        r.observe_with("h", &labels, 3.0);
        r.decision(&DecisionRecord::new("trace"));
        let _ = r.clock().now_ns();
    }

    #[test]
    fn field_values_convert_from_primitives() {
        assert_eq!(FieldValue::from(3u64), FieldValue::U64(3));
        assert_eq!(FieldValue::from(0.5f64), FieldValue::F64(0.5));
        assert_eq!(FieldValue::from("x"), FieldValue::Str("x".into()));
    }
}
