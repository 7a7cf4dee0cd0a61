//! Export sinks: Prometheus text exposition and JSONL event export.
//!
//! Both sinks render from point-in-time copies ([`Snapshot`] /
//! [`Event`]s), so exporting never blocks the pipeline.

use crate::labels::{escape_help_text, LabelSet};
use crate::recorder::FieldValue;
use crate::registry::{Event, HistogramSnapshot, Snapshot};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// Maps a dotted metric name onto the Prometheus charset
/// (`[a-zA-Z0-9_]`, prefixed with `emtrust_`).
fn prometheus_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 8);
    out.push_str("emtrust_");
    for c in name.chars() {
        out.push(if c.is_ascii_alphanumeric() { c } else { '_' });
    }
    out
}

/// Escapes a string for embedding in a JSON document.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders a finite `f64` for JSON (`NaN`/`±∞` become `null`).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Writes the `# HELP` / `# TYPE` header for a family exactly once —
/// distinct dotted names can mangle to the same exposition name.
fn family_header(out: &mut String, typed: &mut BTreeSet<String>, n: &str, name: &str, kind: &str) {
    if typed.insert(n.to_string()) {
        let _ = writeln!(out, "# HELP {n} emtrust metric {}", escape_help_text(name));
        let _ = writeln!(out, "# TYPE {n} {kind}");
    }
}

/// A series' label block: `{a="x"}`, or nothing for the empty set.
fn braced(labels: &LabelSet) -> String {
    if labels.is_empty() {
        String::new()
    } else {
        labels.to_string()
    }
}

/// Writes every series of every family of one scalar kind (counter or
/// gauge); the empty label set renders as a bare sample.
fn write_scalars<T: std::fmt::Display>(
    out: &mut String,
    typed: &mut BTreeSet<String>,
    kind: &str,
    families: &BTreeMap<String, BTreeMap<LabelSet, T>>,
) {
    for (name, family) in families {
        let n = prometheus_name(name);
        family_header(out, typed, &n, name, kind);
        for (labels, value) in family {
            let _ = writeln!(out, "{n}{} {value}", braced(labels));
        }
    }
}

/// Writes one histogram's `_bucket`/`+Inf`/`_sum`/`_count` series, with
/// the series' label pairs merged ahead of `le`.
fn write_histogram(out: &mut String, n: &str, labels: &LabelSet, h: &HistogramSnapshot) {
    let lead = if labels.is_empty() {
        String::new()
    } else {
        format!("{},", labels.render())
    };
    let braced = braced(labels);
    let mut cumulative = 0u64;
    for (le, count) in &h.buckets {
        cumulative += count;
        let _ = writeln!(out, "{n}_bucket{{{lead}le=\"{le:e}\"}} {cumulative}");
    }
    let _ = writeln!(out, "{n}_bucket{{{lead}le=\"+Inf\"}} {}", h.count);
    let _ = writeln!(out, "{n}_sum{braced} {}", h.sum);
    let _ = writeln!(out, "{n}_count{braced} {}", h.count);
}

/// Writes the p50/p95/p99 quantile snapshot of one histogram as a
/// `quantile`-labeled gauge family `{n}_quantile`.
fn write_quantiles(
    out: &mut String,
    typed: &mut BTreeSet<String>,
    n: &str,
    name: &str,
    labels: &LabelSet,
    h: &HistogramSnapshot,
) {
    if h.count == 0 {
        return;
    }
    let qn = format!("{n}_quantile");
    family_header(out, typed, &qn, name, "gauge");
    for (q, label) in [(0.50, "0.5"), (0.95, "0.95"), (0.99, "0.99")] {
        let series = labels.with("quantile", label);
        let _ = writeln!(out, "{qn}{{{}}} {}", series.render(), h.quantile(q));
    }
}

/// Renders a [`Snapshot`] in the Prometheus text exposition format:
/// counters and gauges (one family header, then one sample per series;
/// the unlabeled series is a bare sample), histograms with cumulative
/// `le` buckets plus `_sum` / `_count` and a p50/p95/p99 `_quantile`
/// gauge family, and span distributions as `…_span_ns` histograms.
/// `# TYPE` is emitted once per family, label values and help text are
/// escaped per the text format spec, and the output always ends with a
/// newline.
pub fn prometheus_text(snapshot: &Snapshot) -> String {
    let mut out = String::new();
    let mut typed = BTreeSet::new();

    write_scalars(&mut out, &mut typed, "counter", &snapshot.counters);
    write_scalars(&mut out, &mut typed, "gauge", &snapshot.gauges);

    for (name, family) in &snapshot.histograms {
        let n = prometheus_name(name);
        family_header(&mut out, &mut typed, &n, name, "histogram");
        for (labels, h) in family {
            write_histogram(&mut out, &n, labels, h);
            write_quantiles(&mut out, &mut typed, &n, name, labels, h);
        }
    }

    let empty = LabelSet::new();
    for (name, h) in &snapshot.spans {
        let qualified = format!("span_ns_{name}");
        let n = prometheus_name(&qualified);
        family_header(&mut out, &mut typed, &n, &qualified, "histogram");
        write_histogram(&mut out, &n, &empty, h);
        write_quantiles(&mut out, &mut typed, &n, &qualified, &empty, h);
    }

    // Registry self-observability: bounded-buffer drop counts.
    for (name, value) in [
        ("telemetry.series_overflowed", snapshot.series_overflowed),
        ("telemetry.events_dropped", snapshot.events_dropped),
        ("telemetry.decisions_dropped", snapshot.decisions_dropped),
    ] {
        let n = prometheus_name(name);
        family_header(&mut out, &mut typed, &n, name, "counter");
        let _ = writeln!(out, "{n} {value}");
    }

    if !out.ends_with('\n') {
        out.push('\n');
    }
    out
}

fn field_json(v: &FieldValue) -> String {
    match v {
        FieldValue::U64(u) => u.to_string(),
        FieldValue::F64(f) => json_number(*f),
        FieldValue::Str(s) => format!("\"{}\"", json_escape(s)),
    }
}

/// Renders one event as a single JSON line (no trailing newline).
pub fn event_json(event: &Event) -> String {
    let mut out = format!(
        "{{\"ts_ns\":{},\"kind\":\"{}\"",
        event.ts_ns,
        json_escape(&event.kind)
    );
    for (k, v) in &event.fields {
        let _ = write!(out, ",\"{}\":{}", json_escape(k), field_json(v));
    }
    out.push('}');
    out
}

/// Renders an event log as a JSONL document (one event per line).
pub fn events_jsonl(events: &[Event]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&event_json(e));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Recorder;
    use crate::registry::InMemoryRecorder;

    #[test]
    fn prometheus_text_contains_all_metric_kinds() {
        let r = InMemoryRecorder::new();
        let none = LabelSet::new();
        r.counter_with("monitor.traces", &none, 7);
        r.gauge_with("fingerprint.threshold", &none, 0.0151);
        r.observe_with("monitor.distance", &none, 0.08);
        r.span_complete("collect.measure", 0, 1500);
        let text = prometheus_text(&r.snapshot());
        assert!(text.contains("# TYPE emtrust_monitor_traces counter"));
        assert!(text.contains("emtrust_monitor_traces 7"));
        assert!(text.contains("# TYPE emtrust_fingerprint_threshold gauge"));
        assert!(text.contains("# TYPE emtrust_monitor_distance histogram"));
        assert!(text.contains("emtrust_monitor_distance_count 1"));
        assert!(text.contains("emtrust_span_ns_collect_measure_sum 1500"));
        assert!(text.contains("le=\"+Inf\""));
        assert!(text.contains("# HELP emtrust_monitor_traces emtrust metric monitor.traces"));
        assert!(text.contains("emtrust_monitor_distance_quantile{quantile=\"0.99\"}"));
        assert!(text.ends_with('\n'));
    }

    #[test]
    fn type_lines_are_emitted_once_per_family() {
        let r = InMemoryRecorder::new();
        let none = LabelSet::new();
        // Distinct dotted names that mangle to the same exposition name.
        r.counter_with("monitor.traces", &none, 1);
        r.counter_with("monitor_traces", &none, 2);
        // Unlabeled + labeled series of one family.
        r.counter_with(
            "monitor.traces",
            &LabelSet::from_pairs([("chip_id", "c0")]),
            3,
        );
        let text = prometheus_text(&r.snapshot());
        let type_lines = text
            .lines()
            .filter(|l| l.starts_with("# TYPE emtrust_monitor_traces "))
            .count();
        assert_eq!(type_lines, 1, "{text}");
        assert!(text.contains("emtrust_monitor_traces{chip_id=\"c0\"} 3"));
    }

    #[test]
    fn labeled_histograms_expose_buckets_sums_and_quantiles() {
        let r = InMemoryRecorder::new();
        let tile = LabelSet::from_pairs([("tile", "r0c1")]);
        for v in [1.0, 3.0, 200.0] {
            r.observe_with("tile.margin", &tile, v);
        }
        let text = prometheus_text(&r.snapshot());
        assert!(text.contains("emtrust_tile_margin_bucket{tile=\"r0c1\",le=\"+Inf\"} 3"));
        assert!(text.contains("emtrust_tile_margin_sum{tile=\"r0c1\"} 204"));
        assert!(text.contains("emtrust_tile_margin_count{tile=\"r0c1\"} 3"));
        assert!(text.contains("emtrust_tile_margin_quantile{quantile=\"0.5\",tile=\"r0c1\"}"));
        // Cumulative bucket counts are monotone.
        let cum: Vec<u64> = text
            .lines()
            .filter(|l| l.starts_with("emtrust_tile_margin_bucket"))
            .filter_map(|l| l.rsplit(' ').next()?.parse().ok())
            .collect();
        assert!(cum.windows(2).all(|w| w[0] <= w[1]), "{cum:?}");
    }

    #[test]
    fn label_values_and_help_text_are_escaped() {
        let r = InMemoryRecorder::new();
        r.counter_with("weird\nname", &LabelSet::new(), 1);
        r.counter_with(
            "fleet.traces",
            &LabelSet::from_pairs([("path", "a\"b\\c\nd")]),
            1,
        );
        let text = prometheus_text(&r.snapshot());
        // The mangled name sanitizes the newline; help text escapes it.
        assert!(text.contains("# HELP emtrust_weird_name emtrust metric weird\\nname"));
        assert!(text.contains("{path=\"a\\\"b\\\\c\\nd\"} 1"));
        // The hostile label value stays on exactly one exposition line.
        assert_eq!(text.lines().filter(|l| l.contains("path=")).count(), 1);
        assert!(text.ends_with('\n'));
    }

    #[test]
    fn jsonl_export_is_one_valid_object_per_line() {
        let r = InMemoryRecorder::new();
        r.event(
            "alarm",
            &[
                ("correlation_id", FieldValue::U64(3)),
                ("distance", FieldValue::F64(0.5)),
                ("kind", FieldValue::Str("time\"domain".into())),
            ],
        );
        let jsonl = events_jsonl(&r.events());
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 1);
        assert!(lines[0].starts_with('{') && lines[0].ends_with('}'));
        assert!(lines[0].contains("\"correlation_id\":3"));
        assert!(lines[0].contains("\\\"domain"));
    }

    #[test]
    fn json_helpers_handle_edge_cases() {
        assert_eq!(json_escape("a\nb"), "a\\nb");
        assert_eq!(json_number(f64::NAN), "null");
        assert_eq!(json_number(1.5), "1.5");
    }
}
