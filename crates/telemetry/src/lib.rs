#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented
    )
)]

//! # emtrust-telemetry
//!
//! Structured spans, metrics and alarm-forensics primitives for the
//! `emtrust` runtime trust-evaluation pipeline — the observability layer
//! the paper's "monitor keeps reading the EM sensor output" loop needs
//! once it runs as a service.
//!
//! The crate is dependency-free and organised around one question per
//! module:
//!
//! - [`recorder`] — the [`Recorder`] trait every backend implements, and
//!   the zero-cost [`NullRecorder`] default;
//! - [`registry`] — [`InMemoryRecorder`], lock-free atomic counters /
//!   gauges / histograms plus a bounded structured-event log. Every
//!   metric is a family of series keyed by [`LabelSet`]; an unlabeled
//!   metric is the series under the empty set;
//! - [`clock`] — the injectable [`Clock`]; [`ManualClock`] keeps recorded
//!   runs deterministic (no [`std::time::Instant`] ever reaches a
//!   recorded value);
//! - [`sink`] — Prometheus text exposition and JSONL event export;
//! - [`ring`] — the overwrite-oldest [`RingBuffer`] behind alarm
//!   forensics.
//!
//! ## Global recorder
//!
//! Pipeline stages record through a process-global handle so telemetry
//! needs no plumbing through every configuration struct:
//!
//! ```
//! use emtrust_telemetry as telemetry;
//! use std::sync::Arc;
//!
//! let registry = Arc::new(telemetry::InMemoryRecorder::new());
//! telemetry::install(registry.clone());
//! let chip = telemetry::LabelSet::new().with("chip_id", "c0");
//! {
//!     let _span = telemetry::span("fit");
//!     telemetry::counter("traces", 32);
//!     telemetry::counter_with("traces", &chip, 8);
//! }
//! let snap = registry.snapshot();
//! assert_eq!(snap.counters["traces"][&telemetry::LabelSet::new()], 32);
//! assert_eq!(snap.counters["traces"][&chip], 8);
//! assert_eq!(snap.spans["fit"].count, 1);
//! telemetry::uninstall();
//! ```
//!
//! With no recorder installed every instrumentation point costs one
//! relaxed atomic load — the `NullRecorder` configuration benchmarked by
//! `exp_telemetry` (overhead budget: < 2 % on the full Table-1 sweep).
//!
//! Span paths are hierarchical per thread: nested [`span`] guards join
//! their names with dots (`collect.measure.emf`). Worker threads start
//! fresh stacks, so pool-side spans root at the worker's first span.

pub mod clock;
pub mod forensics;
pub mod labels;
pub mod profile;
pub mod recorder;
pub mod registry;
pub mod ring;
pub mod sink;

pub use clock::{Clock, ManualClock, MonotonicClock};
pub use forensics::{
    decisions_jsonl, DecisionRecord, DetectorDecision, FlightRecorder, FlightRecorderConfig,
    FlightWindow, ForensicsConfig, FrameDigest, TileMargin,
};
pub use labels::LabelSet;
pub use profile::{SpanNode, SpanProfile};
pub use recorder::{FieldValue, NullRecorder, Recorder};
pub use registry::{Event, HistogramSnapshot, InMemoryRecorder, Snapshot};
pub use ring::RingBuffer;

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

static ENABLED: AtomicBool = AtomicBool::new(false);
static GLOBAL: RwLock<Option<Arc<dyn Recorder>>> = RwLock::new(None);
static CORRELATION: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// Installs `recorder` as the process-global telemetry backend.
pub fn install(recorder: Arc<dyn Recorder>) {
    *GLOBAL
        .write()
        .unwrap_or_else(|poisoned| poisoned.into_inner()) = Some(recorder);
    ENABLED.store(true, Ordering::Release);
}

/// Removes the global recorder, restoring the zero-cost null default.
pub fn uninstall() {
    ENABLED.store(false, Ordering::Release);
    *GLOBAL
        .write()
        .unwrap_or_else(|poisoned| poisoned.into_inner()) = None;
}

/// Whether a recorder is installed. One relaxed atomic load — the guard
/// every instrumentation point checks first.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn current() -> Option<Arc<dyn Recorder>> {
    if !is_enabled() {
        return None;
    }
    GLOBAL
        .read()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
        .clone()
}

/// Runs `f` with the installed recorder, or not at all.
#[inline]
pub fn with_recorder(f: impl FnOnce(&dyn Recorder)) {
    if let Some(r) = current() {
        f(&*r);
    }
}

/// Adds `delta` to the unlabeled series of counter `name`.
#[inline]
pub fn counter(name: &str, delta: u64) {
    counter_with(name, &LabelSet::new(), delta);
}

/// Sets the unlabeled series of gauge `name`.
#[inline]
pub fn gauge(name: &str, value: f64) {
    gauge_with(name, &LabelSet::new(), value);
}

/// Records one sample in the unlabeled series of distribution `name`.
#[inline]
pub fn observe(name: &str, value: f64) {
    observe_with(name, &LabelSet::new(), value);
}

/// Records a structured event on the installed recorder.
#[inline]
pub fn event(kind: &str, fields: &[(&str, FieldValue)]) {
    with_recorder(|r| r.event(kind, fields));
}

/// Adds `delta` to the labeled counter series on the installed recorder.
#[inline]
pub fn counter_with(name: &str, labels: &LabelSet, delta: u64) {
    with_recorder(|r| r.counter_with(name, labels, delta));
}

/// Sets the labeled gauge series on the installed recorder.
#[inline]
pub fn gauge_with(name: &str, labels: &LabelSet, value: f64) {
    with_recorder(|r| r.gauge_with(name, labels, value));
}

/// Records one labeled distribution sample on the installed recorder.
#[inline]
pub fn observe_with(name: &str, labels: &LabelSet, value: f64) {
    with_recorder(|r| r.observe_with(name, labels, value));
}

/// Records one decision-forensics record on the installed recorder.
#[inline]
pub fn decision(record: &DecisionRecord) {
    with_recorder(|r| r.decision(record));
}

/// Times `f` with the recorder's clock and records the elapsed
/// nanoseconds as a sample of the distribution series `name`/`labels`.
/// Unlike [`span`], the series is not part of the hierarchical span
/// stack (per-worker pool timings carry a `worker` label). Runs `f`
/// untimed when disabled.
#[inline]
pub fn time<R>(name: &str, labels: &LabelSet, f: impl FnOnce() -> R) -> R {
    match current() {
        Some(r) => {
            let t0 = r.clock().now_ns();
            let out = f();
            let elapsed = r.clock().now_ns().saturating_sub(t0);
            r.observe_with(name, labels, elapsed as f64);
            out
        }
        None => f(),
    }
}

/// An active hierarchical timing span; completes (records its duration
/// under its dot-joined path) when dropped.
#[must_use = "a span records its duration when dropped"]
#[derive(Debug)]
pub struct SpanGuard(Option<SpanInner>);

#[derive(Debug)]
struct SpanInner {
    recorder: Arc<dyn Recorder>,
    start_ns: u64,
    depth: usize,
}

/// Opens a timing span named `name`, nested under any span already open
/// on this thread. No-op (and allocation-free) when telemetry is
/// disabled.
pub fn span(name: &'static str) -> SpanGuard {
    match current() {
        Some(recorder) => {
            let start_ns = recorder.clock().now_ns();
            let depth = SPAN_STACK.with(|s| {
                let mut stack = s.borrow_mut();
                stack.push(name);
                stack.len()
            });
            SpanGuard(Some(SpanInner {
                recorder,
                start_ns,
                depth,
            }))
        }
        None => SpanGuard(None),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(inner) = self.0.take() {
            let path = SPAN_STACK.with(|s| {
                let mut stack = s.borrow_mut();
                // Tolerate guards dropped out of order: truncate to this
                // guard's depth, then pop its own name.
                stack.truncate(inner.depth);
                let path = stack.join(".");
                stack.pop();
                path
            });
            let elapsed = inner
                .recorder
                .clock()
                .now_ns()
                .saturating_sub(inner.start_ns);
            inner.recorder.span_complete(&path, inner.start_ns, elapsed);
        }
    }
}

/// Draws the next alarm correlation id: process-unique and strictly
/// monotonic, starting at 1. Ids are forensic metadata — two runs of the
/// same workload agree on every alarm *except* its correlation id, which
/// is why `PipelineAlarm` equality in `emtrust` ignores it.
pub fn next_correlation_id() -> u64 {
    CORRELATION.fetch_add(1, Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The global recorder is process state: tests that install one are
    /// serialized through this lock.
    static GLOBAL_TEST_LOCK: Mutex<()> = Mutex::new(());

    fn lock() -> std::sync::MutexGuard<'static, ()> {
        GLOBAL_TEST_LOCK
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    #[test]
    fn disabled_helpers_are_no_ops() {
        let _guard = lock();
        uninstall();
        assert!(!is_enabled());
        counter("x", 1);
        gauge("x", 1.0);
        observe("x", 1.0);
        event("x", &[]);
        let _s = span("x");
        assert_eq!(time("x", &LabelSet::new(), || 41 + 1), 42);
    }

    #[test]
    fn install_routes_helpers_to_the_registry() {
        let _guard = lock();
        let reg = Arc::new(InMemoryRecorder::with_clock(Box::new(ManualClock::new(50))));
        install(reg.clone());
        counter("c", 2);
        gauge("g", 3.5);
        observe("h", 7.0);
        let worker = LabelSet::from_pairs([("worker", "0")]);
        let got = time("timed", &worker, || 5);
        assert_eq!(got, 5);
        event("mark", &[("i", FieldValue::U64(9))]);
        uninstall();
        let snap = reg.snapshot();
        let none = LabelSet::new();
        assert_eq!(snap.counters["c"][&none], 2);
        assert_eq!(snap.gauges["g"][&none], 3.5);
        assert_eq!(snap.histograms["h"][&none].count, 1);
        assert_eq!(snap.histograms["timed"][&worker].count, 1);
        assert_eq!(snap.histograms["timed"][&worker].sum, 50.0);
        assert_eq!(reg.events().len(), 1);
    }

    #[test]
    fn nested_spans_join_their_paths() {
        let _guard = lock();
        let reg = Arc::new(InMemoryRecorder::with_clock(Box::new(ManualClock::new(10))));
        install(reg.clone());
        {
            let _outer = span("collect");
            {
                let _inner = span("measure");
            }
            {
                let _inner = span("measure");
            }
        }
        uninstall();
        let snap = reg.snapshot();
        assert_eq!(snap.spans["collect"].count, 1);
        assert_eq!(snap.spans["collect.measure"].count, 2);
    }

    #[test]
    fn spans_on_other_threads_root_fresh_stacks() {
        let _guard = lock();
        let reg = Arc::new(InMemoryRecorder::new());
        install(reg.clone());
        {
            let _outer = span("outer");
            std::thread::scope(|s| {
                s.spawn(|| {
                    let _worker = span("worker");
                });
            });
        }
        uninstall();
        let snap = reg.snapshot();
        assert!(snap.spans.contains_key("worker"));
        assert!(snap.spans.contains_key("outer"));
        assert!(!snap.spans.contains_key("outer.worker"));
    }

    #[test]
    fn correlation_ids_are_unique_and_monotonic() {
        let a = next_correlation_id();
        let b = next_correlation_id();
        let c = next_correlation_id();
        assert!(a < b && b < c);
    }

    #[test]
    fn labeled_helpers_route_to_the_registry() {
        let _guard = lock();
        let reg = Arc::new(InMemoryRecorder::new());
        install(reg.clone());
        let labels = LabelSet::from_pairs([("chip_id", "c3"), ("tile", "r1c0")]);
        counter_with("fleet.traces", &labels, 2);
        gauge_with("fleet.threshold", &labels, 0.5);
        observe_with("fleet.margin", &labels, 1.5);
        let mut rec = DecisionRecord::new("trace");
        rec.labels = labels.clone();
        decision(&rec);
        uninstall();
        let snap = reg.snapshot();
        assert_eq!(snap.counters["fleet.traces"][&labels], 2);
        assert_eq!(snap.gauges["fleet.threshold"][&labels], 0.5);
        assert_eq!(snap.histograms["fleet.margin"][&labels].count, 1);
        assert_eq!(reg.decisions().len(), 1);
        assert_eq!(reg.decisions()[0].labels, labels);
        // Disabled: the same helpers are no-ops.
        counter_with("fleet.traces", &labels, 7);
        decision(&rec);
        assert_eq!(reg.snapshot().counters["fleet.traces"][&labels], 2);
    }

    #[test]
    fn span_stack_stays_balanced_across_a_caught_panic() {
        let _guard = lock();
        let reg = Arc::new(InMemoryRecorder::with_clock(Box::new(ManualClock::new(10))));
        install(reg.clone());
        {
            let _outer = span("outer");
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _inner = span("doomed");
                panic!("boom");
            }));
            assert!(caught.is_err());
            // The panicking guard unwound and popped itself: a new span
            // opened now must nest under `outer` alone, not under the
            // dead `doomed` frame.
            {
                let _after = span("after");
            }
        }
        uninstall();
        let snap = reg.snapshot();
        assert_eq!(snap.spans["outer.doomed"].count, 1, "{:?}", snap.spans);
        assert_eq!(snap.spans["outer.after"].count, 1, "{:?}", snap.spans);
        assert!(!snap.spans.contains_key("outer.doomed.after"));
    }
}
