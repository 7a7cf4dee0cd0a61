//! Golden parity fixtures: committed per-trace, per-window and per-run
//! outputs of the single-sensor detection path, which the pipeline must
//! reproduce bit for bit (`tests/fixtures/legacy_parity.txt`).

// Each test crate uses only the assertions its scenarios need.
#![allow(dead_code)]

use emtrust::{DetectionPipeline, ScoreDetail, TraceOutcome, TraceVerdict, WindowOutcome};

const FIXTURE: &str = include_str!("../fixtures/legacy_parity.txt");

/// One `kind key=value …` fixture line.
struct Row {
    kind: String,
    fields: Vec<(String, String)>,
}

impl Row {
    fn get(&self, key: &str) -> &str {
        self.fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
            .unwrap_or_else(|| panic!("fixture {} row lacks `{key}`", self.kind))
    }

    fn uint(&self, key: &str) -> u64 {
        self.get(key).parse().expect("decimal fixture field")
    }

    /// An `f64` field, stored as its hex bit pattern.
    fn bits(&self, key: &str) -> u64 {
        u64::from_str_radix(self.get(key), 16).expect("hex fixture field")
    }

    fn flag(&self, key: &str) -> bool {
        self.uint(key) == 1
    }
}

/// One `[name]` section of the fixture.
pub struct Scenario {
    name: String,
    rows: Vec<Row>,
}

/// Loads the named scenario.
pub fn scenario(name: &str) -> Scenario {
    let mut current = None;
    let mut rows = Vec::new();
    for line in FIXTURE.lines().map(str::trim) {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(section) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            current = Some(section);
            continue;
        }
        if current != Some(name) {
            continue;
        }
        let mut tokens = line.split_whitespace();
        let kind = tokens.next().expect("row kind").to_string();
        let fields = tokens
            .map(|t| {
                let (k, v) = t.split_once('=').expect("key=value fixture field");
                (k.to_string(), v.to_string())
            })
            .collect();
        rows.push(Row { kind, fields });
    }
    assert!(!rows.is_empty(), "fixture has no scenario `{name}`");
    Scenario {
        name: name.to_string(),
        rows,
    }
}

impl Scenario {
    fn rows<'a>(&'a self, kind: &'a str) -> impl Iterator<Item = &'a Row> + 'a {
        self.rows.iter().filter(move |r| r.kind == kind)
    }

    /// Per trace: verdict, index, Euclidean statistic and threshold, and
    /// whether the fused decision alarmed.
    pub fn assert_traces(&self, outcomes: &[TraceOutcome]) {
        let name = &self.name;
        assert_eq!(
            self.rows("trace").count(),
            outcomes.len(),
            "{name}: trace count"
        );
        for (pos, (row, o)) in self.rows("trace").zip(outcomes).enumerate() {
            assert_eq!(
                row.get("verdict"),
                o.verdict.label(),
                "{name} #{pos}: verdict"
            );
            if let TraceVerdict::Rejected { reason } = &o.verdict {
                assert_eq!(row.get("reason"), reason.label(), "{name} #{pos}: reason");
                assert!(o.votes.is_empty() && o.alarm.is_none(), "{name} #{pos}");
                continue;
            }
            let index = row.uint("index");
            assert_eq!(o.index, Some(index), "{name} #{pos}: index");
            let vote = o.votes.first().expect("euclidean vote");
            assert_eq!(vote.detector, "euclidean");
            assert_eq!(
                vote.score.statistic.to_bits(),
                row.bits("statistic"),
                "{name} #{pos}: statistic"
            );
            assert_eq!(
                vote.score.threshold.to_bits(),
                row.bits("threshold"),
                "{name} #{pos}: threshold"
            );
            assert_eq!(
                o.alarm.is_some(),
                row.flag("alarmed"),
                "{name} #{pos}: alarm"
            );
            if let Some(alarm) = &o.alarm {
                assert_eq!(alarm.index, index);
                assert_eq!(alarm.verdicts, o.votes);
            }
        }
    }

    /// Per window: index, spot count, the top anomaly's frequency and
    /// magnitude, and whether the fused decision alarmed.
    pub fn assert_windows(&self, outcomes: &[WindowOutcome]) {
        let name = &self.name;
        assert_eq!(
            self.rows("window").count(),
            outcomes.len(),
            "{name}: window count"
        );
        for (row, o) in self.rows("window").zip(outcomes) {
            let index = row.uint("index");
            assert_eq!(o.index, Some(index), "{name}: window index");
            assert_eq!(
                o.alarm.is_some(),
                row.flag("alarmed"),
                "{name} w{index}: alarm"
            );
            let vote = o
                .votes
                .iter()
                .find(|v| v.detector == "spectral")
                .expect("spectral vote");
            let ScoreDetail::Spectral { anomalies } = &vote.score.detail else {
                panic!("{name} w{index}: spectral vote must carry anomalies");
            };
            assert_eq!(
                anomalies.len() as u64,
                row.uint("spot_count"),
                "{name} w{index}"
            );
            if let Some(top) = anomalies.first() {
                assert_eq!(top.frequency_hz.to_bits(), row.bits("frequency_hz"));
                assert_eq!(
                    top.suspect_magnitude.to_bits(),
                    row.bits("suspect_magnitude")
                );
            }
        }
    }

    /// Per run: alarm rate, health and the observation counters.
    pub fn assert_run(&self, pipeline: &DetectionPipeline) {
        let name = &self.name;
        let run = self.rows("run").next().expect("run row");
        assert_eq!(
            pipeline.alarm_rate().to_bits(),
            run.bits("alarm_rate"),
            "{name}: alarm_rate"
        );
        assert_eq!(
            pipeline.health().label(),
            run.get("health"),
            "{name}: health"
        );
        assert_eq!(
            pipeline.traces_seen(),
            run.uint("traces_seen"),
            "{name}: traces_seen"
        );
        assert_eq!(
            pipeline.traces_rejected(),
            run.uint("traces_rejected"),
            "{name}: traces_rejected"
        );
        assert_eq!(
            pipeline.windows_seen(),
            run.uint("windows_seen"),
            "{name}: windows_seen"
        );
    }
}
