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

//! Overhead of the staged detection pipeline against the path a caller
//! of the removed single-sensor monitor wrapper now runs, on the same
//! mixed golden/Trojan workload.
//!
//! That caller builds a [`DetectionPipeline`] with a single Euclidean
//! detector under Or-fusion, ingests the batch, and turns each alarmed
//! outcome into the `(trace_index, distance, threshold)` triple the
//! wrapper used to return. The bare pipeline must (a) raise alarms on
//! exactly the same trace indices and (b) stay within 2 % of that
//! path's wall-clock — the budget `check_bench_schema` enforces on
//! `BENCH_pipeline.json` (`monitor_seconds` times the caller's path).
//!
//! Both paths are timed best-of-`REPEATS` on fresh instances (alarm
//! logs and health state start empty every repeat), with the workload
//! collected once up front so acquisition never pollutes the timing.

use emtrust::acquisition::TestBench;
use emtrust::detector::EuclideanDetector;
use emtrust::fingerprint::{FingerprintConfig, GoldenFingerprint};
use emtrust::{DetectionPipeline, FusionPolicy};
use emtrust_bench::{ArtifactDoc, OrExit, Report, EXPERIMENT_KEY};
use emtrust_silicon::Channel;
use emtrust_trojan::{ProtectedChip, TrojanKind};
use std::time::Instant;

const N_GOLDEN: usize = 32;
const N_SUSPECT: usize = 256;
const REPEATS: usize = 20;

/// The mixed workload: first half golden traffic, second half with the
/// T4 performance-degrader Trojan armed.
fn workload(chip: &ProtectedChip) -> (GoldenFingerprint, Vec<Vec<f64>>) {
    let bench = TestBench::simulation(chip).or_exit("simulation bench");
    let golden = bench
        .collect(EXPERIMENT_KEY, N_GOLDEN, None, Channel::OnChipSensor, 42)
        .or_exit("golden collection");
    let fp = GoldenFingerprint::fit(&golden, FingerprintConfig::default()).or_exit("golden fit");
    // The clean half reuses the golden seed so its fixed plaintext
    // matches the fingerprint's; a different stimulus would alarm on
    // data-dependent energy, not on the Trojan.
    let mut traces = bench
        .collect(
            EXPERIMENT_KEY,
            N_SUSPECT / 2,
            None,
            Channel::OnChipSensor,
            42,
        )
        .or_exit("clean suspects")
        .traces()
        .to_vec();
    traces.extend_from_slice(
        bench
            .collect(
                EXPERIMENT_KEY,
                N_SUSPECT / 2,
                Some(TrojanKind::T4PowerDegrader),
                Channel::OnChipSensor,
                44,
            )
            .or_exit("armed suspects")
            .traces(),
    );
    (fp, traces)
}

/// The single-sensor pipeline both timed paths ingest through.
fn single_sensor(fp: &GoldenFingerprint) -> DetectionPipeline {
    DetectionPipeline::builder()
        .detector(Box::new(EuclideanDetector::new(fp.clone())))
        .fusion(FusionPolicy::Or)
        .build()
}

/// Times the path a migrated caller of the monitor wrapper's batch
/// ingest runs: `try_ingest_batch`, then each alarmed outcome turned
/// into its `(trace_index, distance, threshold)` triple.
fn time_monitor(fp: &GoldenFingerprint, traces: &[Vec<f64>]) -> (f64, Vec<u64>) {
    let mut best = f64::INFINITY;
    let mut indices = Vec::new();
    for _ in 0..REPEATS {
        let mut pipeline = single_sensor(fp);
        let t0 = Instant::now();
        let batch = pipeline
            .try_ingest_batch(traces)
            .or_exit("monitor-path ingest");
        let alarms: Vec<(u64, f64, f64)> = batch
            .outcomes
            .iter()
            .filter_map(|o| {
                let (alarm, vote) = (o.alarm.as_ref()?, o.votes.first()?);
                Some((alarm.index, vote.score.statistic, vote.score.threshold))
            })
            .collect();
        let elapsed = t0.elapsed().as_secs_f64();
        best = best.min(elapsed);
        indices = alarms.iter().map(|&(index, ..)| index).collect();
    }
    (best, indices)
}

fn time_pipeline(fp: &GoldenFingerprint, traces: &[Vec<f64>]) -> (f64, Vec<u64>) {
    let mut best = f64::INFINITY;
    let mut indices = Vec::new();
    for _ in 0..REPEATS {
        let mut pipeline = single_sensor(fp);
        let t0 = Instant::now();
        let batch = pipeline.try_ingest_batch(traces).or_exit("pipeline ingest");
        let elapsed = t0.elapsed().as_secs_f64();
        best = best.min(elapsed);
        indices = batch.alarms.iter().map(|a| a.index).collect();
    }
    (best, indices)
}

fn main() {
    let mut report = Report::from_env("exp_pipeline");
    let chip = ProtectedChip::with_trojans(&[TrojanKind::T4PowerDegrader]);
    let (fp, traces) = workload(&chip);

    let (monitor_seconds, monitor_alarms) = time_monitor(&fp, &traces);
    let (pipeline_seconds, pipeline_alarms) = time_pipeline(&fp, &traces);
    let alarms_equal = monitor_alarms == pipeline_alarms;
    let overhead_pct = 100.0 * (pipeline_seconds - monitor_seconds) / monitor_seconds;

    assert!(
        !monitor_alarms.is_empty(),
        "the armed half of the workload must alarm"
    );
    assert!(
        alarms_equal,
        "pipeline alarms {pipeline_alarms:?} != monitor-path alarms {monitor_alarms:?}"
    );

    report.table(
        &format!(
            "Pipeline overhead vs monitor-style caller ({N_SUSPECT} traces, best of {REPEATS})"
        ),
        &["path", "seconds", "alarms"],
        &[
            vec![
                "try_ingest_batch + alarm triples".into(),
                format!("{monitor_seconds:.6}"),
                monitor_alarms.len().to_string(),
            ],
            vec![
                "DetectionPipeline::try_ingest_batch".into(),
                format!("{pipeline_seconds:.6}"),
                pipeline_alarms.len().to_string(),
            ],
        ],
    );
    report.scalar("monitor_seconds", monitor_seconds);
    report.scalar("pipeline_seconds", pipeline_seconds);
    report.scalar("overhead_pct", overhead_pct);

    ArtifactDoc::new("pipeline_overhead")
        .field_u64("n_traces", N_SUSPECT as u64)
        .field_u64("repeats", REPEATS as u64)
        .field_f64("monitor_seconds", monitor_seconds)
        .field_f64("pipeline_seconds", pipeline_seconds)
        .field_f64("overhead_pct", overhead_pct)
        .field_bool("alarms_equal", alarms_equal)
        .field_u64("alarm_count", pipeline_alarms.len() as u64)
        .write("BENCH_pipeline.json", &mut report);
    report.finish();
}
