//! `fleet_steady` and `fleet_churn`: one producer offering physics
//! traces to a one-shard [`FleetService`] in a closed loop.
//!
//! The traces are golden and T4-armed encryptions of the four-Trojan
//! chip, collected once at set-up through `TestBench`; the passes do no
//! simulation, synthesis or coupling work at all. Each chip's stream
//! starts with `GOLDEN_TRACES` golden traces (its cold-start baseline),
//! after which a quarter of its traces, drawn by the seed, are armed.
//!
//! - `fleet_steady`: a chip population that fits in the store's hot
//!   set, visited chip-major. This is the store's read path: after the
//!   warm-up every batch is sanitized, featurized and scored.
//! - `fleet_churn`: at least four times the hot capacity in chips,
//!   visited round-major, so nearly every batch evicts one chip and
//!   revives (and re-fits) another. This is the store's write path.
//!
//! The producer sends one batch, waits for its admission receipt and,
//! when the receipt says `Throttled`, pauses before the next send; a
//! healthy run sheds nothing.
//!
//! The expected outcome of a pass comes from driving one
//! [`PipelineStore`] per shard directly with the same batches in the
//! same order (the service must deliver exactly that), and, on
//! `fleet_steady`, from the stream itself: every armed trace after the
//! warm-up alarms and no golden one does.

use crate::spans::Trace;
use crate::{mix, Args, PassResult, Workload, KEY, PT};
use emtrust::acquisition::{Stimulus, TestBench};
use emtrust::fingerprint::{FingerprintConfig, GoldenFingerprint};
use emtrust::telemetry::LabelSet;
use emtrust::{DetectionPipeline, EuclideanDetector, TraceSanitizer, TraceSet};
use emtrust_fleet::store::SAMPLE_RATE_HZ;
use emtrust_fleet::{
    chip_key, AdmissionVerdict, FleetConfig, FleetService, FleetSummary, PipelineStore, StoreConfig,
};
use emtrust_silicon::Channel;
use emtrust_trojan::{ProtectedChip, TrojanKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Traces per check-in batch.
const BATCH: usize = 4;
/// Golden traces a chip's fingerprint is fitted from (the cold-start
/// contract), and the baseline window the store keeps.
const GOLDEN_TRACES: usize = 8;
/// Hot (fitted) chips each shard's store keeps.
const HOT_CAPACITY: usize = 32;
/// Chips and batches per chip of one `fleet_steady` pass.
const STEADY_CHIPS: usize = 24;
const STEADY_ROUNDS: usize = 256;
/// Hot capacities of chips, and batches per chip, of one
/// `fleet_churn` pass.
const CHURN_FACTOR: usize = 4;
const CHURN_ROUNDS: usize = 16;
/// Golden and T4-armed traces in the pool.
const POOL_GOLDEN: usize = 128;
const POOL_ARMED: usize = 32;
/// Share of post-warm-up traces drawn from the armed pool.
const ARMED_SHARE: f64 = 0.25;
/// The producer's pause after a `Throttled` receipt at the throttle
/// depth; it doubles with every batch the queue holds beyond that
/// depth, up to 2^`THROTTLE_MAX_DOUBLINGS` times.
const THROTTLE_PAUSE: Duration = Duration::from_micros(200);
const THROTTLE_MAX_DOUBLINGS: usize = 7;

/// One check-in: a chip and indices into the trace pool.
struct Job {
    chip: usize,
    traces: [usize; BATCH],
}

/// Exact outcome of a pass, or of the direct store replay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Outcome {
    scored: u64,
    rejected: u64,
    alarms: u64,
    fits: u64,
    refits: u64,
    evictions: u64,
}

impl Outcome {
    fn of(summary: &FleetSummary) -> Self {
        summary
            .shards
            .iter()
            .fold(Outcome::default(), |o, s| Outcome {
                scored: o.scored + s.scored,
                rejected: o.rejected + s.rejected,
                alarms: o.alarms + s.alarms,
                fits: o.fits + s.fits,
                refits: o.refits + s.refits,
                evictions: o.evictions + s.evictions,
            })
    }

    fn signature(&self) -> Vec<u64> {
        vec![
            self.scored,
            self.rejected,
            self.alarms,
            self.fits,
            self.refits,
            self.evictions,
        ]
    }
}

/// What the direct store replay saw at each batch: whether the store
/// re-fitted the chip on revival before scoring it.
struct StoreReplay {
    outcome: Outcome,
    refit_at: Vec<bool>,
}

/// Set-up state of both fleet workloads.
pub struct Fleet {
    config: FleetConfig,
    pool: Vec<Vec<f64>>,
    chip_ids: Vec<String>,
    jobs: Vec<Job>,
    /// Armed traces after each chip's warm-up (`fleet_steady` expects
    /// exactly this many alarms).
    armed_scored: u64,
    churn: bool,
    /// The first and the latest pass's outcome.
    first: Option<Outcome>,
    last: Option<Outcome>,
}

impl Workload for Fleet {
    const LATENCY: &'static str = "admit_ms";

    fn setup(chip: &'static ProtectedChip, args: &Args) -> Result<Self, String> {
        let churn = args.workload == "fleet_churn";
        let bench = TestBench::simulation(chip)
            .map_err(|e| e.to_string())?
            .with_parallel(crate::pool());
        let collect = |n, armed, seed| {
            bench
                .collect_with(
                    KEY,
                    Stimulus::Fixed(PT),
                    n,
                    armed,
                    Channel::OnChipSensor,
                    seed,
                )
                .map(|set| set.traces().to_vec())
                .map_err(|e| e.to_string())
        };
        let mut pool = collect(POOL_GOLDEN, None, mix(args.seed, 1))?;
        pool.extend(collect(
            POOL_ARMED,
            Some(TrojanKind::T4PowerDegrader),
            mix(args.seed, 2),
        )?);

        let shards = crate::WORKERS;
        let config = FleetConfig {
            shards,
            golden_traces: GOLDEN_TRACES,
            store: StoreConfig {
                capacity: HOT_CAPACITY,
                baseline_window: GOLDEN_TRACES,
                cold_capacity: 4096,
            },
            seed: mix(args.seed, 3),
            ..FleetConfig::default()
        };
        let (chips, rounds) = if churn {
            (CHURN_FACTOR * HOT_CAPACITY * shards, CHURN_ROUNDS)
        } else {
            (STEADY_CHIPS, STEADY_ROUNDS)
        };
        let chip_ids: Vec<String> = (0..chips).map(|c| format!("chip-{c:05}")).collect();
        let mut per_shard = vec![0usize; shards];
        for id in &chip_ids {
            per_shard[(chip_key(id) % shards as u64) as usize] += 1;
        }
        let fits = per_shard.iter().all(|&n| n <= HOT_CAPACITY);
        if fits == churn {
            return Err(format!(
                "chips per shard {per_shard:?} against hot capacity {HOT_CAPACITY}"
            ));
        }
        if per_shard.iter().any(|&n| n > config.store.cold_capacity) {
            return Err("the cold store cannot hold every chip".into());
        }

        // Each chip's stream, drawn from its own seeded generator.
        let mut armed_scored = 0u64;
        let streams: Vec<Vec<[usize; BATCH]>> = (0..chips)
            .map(|c| {
                let mut rng = StdRng::seed_from_u64(mix(args.seed, 100 + c as u64));
                (0..rounds)
                    .map(|round| {
                        let mut batch = [0; BATCH];
                        for (j, slot) in batch.iter_mut().enumerate() {
                            let warm = round * BATCH + j < GOLDEN_TRACES;
                            *slot = if !warm && rng.gen_bool(ARMED_SHARE) {
                                armed_scored += 1;
                                POOL_GOLDEN + rng.gen_range(0..POOL_ARMED)
                            } else {
                                rng.gen_range(0..POOL_GOLDEN)
                            };
                        }
                        batch
                    })
                    .collect()
            })
            .collect();
        let jobs: Vec<Job> = if churn {
            (0..rounds)
                .flat_map(|r| (0..chips).map(move |c| (c, r)))
                .map(|(c, r)| Job {
                    chip: c,
                    traces: streams[c][r],
                })
                .collect()
        } else {
            (0..chips)
                .flat_map(|c| (0..rounds).map(move |r| (c, r)))
                .map(|(c, r)| Job {
                    chip: c,
                    traces: streams[c][r],
                })
                .collect()
        };
        Ok(Fleet {
            config,
            pool,
            chip_ids,
            jobs,
            armed_scored,
            churn,
            first: None,
            last: None,
        })
    }

    fn pass(&mut self, t: Trace<'_>, traced: bool) -> Result<PassResult, String> {
        let mut r = PassResult::default();
        let service = FleetService::new(self.config.clone()).map_err(|e| e.to_string())?;
        let t0 = Instant::now();
        let (mut throttled, mut attempts) = (0u64, 0u64);
        let throttle_depth = self.config.throttle_depth();
        r.latencies_ms.reserve(self.jobs.len());
        for (b, job) in self.jobs.iter().enumerate() {
            let traces = self.batch(job);
            let chip_id = &self.chip_ids[job.chip];
            let t1 = Instant::now();
            let receipt = t
                .span("fleet.admit", b as u64, |_| service.ingest(chip_id, traces))
                .map_err(|e| e.to_string())?;
            r.latencies_ms.push(t1.elapsed().as_secs_f64() * 1e3);
            attempts += u64::from(receipt.attempts);
            let refused = matches!(
                receipt.verdict,
                AdmissionVerdict::Shed | AdmissionVerdict::Quarantined
            );
            r.failures
                .record(BATCH as u64, if refused { BATCH as u64 } else { 0 });
            if receipt.verdict == AdmissionVerdict::Throttled {
                throttled += 1;
                let excess = receipt.depth.saturating_sub(throttle_depth);
                let pause = THROTTLE_PAUSE * (1 << excess.min(THROTTLE_MAX_DOUBLINGS));
                t.span("fleet.throttle_wait", b as u64, |_| {
                    std::thread::sleep(pause)
                });
            }
        }
        let summary = t
            .span("fleet.drain", 0, |_| service.finish())
            .map_err(|e| e.to_string())?;
        r.busy_s = t0.elapsed().as_secs_f64();
        r.wall_s = r.busy_s;
        let outcome = Outcome::of(&summary);
        r.traces = outcome.scored;
        r.signature = outcome.signature();
        if summary.shed > 0 || summary.quarantined > 0 {
            r.errors.push(format!(
                "a healthy run shed {} and refused {} batches",
                summary.shed, summary.quarantined
            ));
        }
        let offered = (self.jobs.len() * BATCH) as u64;
        r.check(outcome.scored == offered && outcome.rejected == 0, || {
            format!("{offered} traces offered, {outcome:?}")
        });
        if !self.churn {
            let diff = outcome.alarms.abs_diff(self.armed_scored);
            r.failures.record(0, diff);
            if diff > 0 || outcome.evictions > 0 {
                r.errors.push(format!(
                    "expected {} alarms and no evictions, got {outcome:?}",
                    self.armed_scored
                ));
            }
        }
        if traced {
            let batches = self.jobs.len() as f64;
            r.counts
                .insert("fleet.attempts_per_batch", attempts as f64 / batches);
            r.counts.insert("fleet.throttled", throttled as f64);
            r.counts.insert("fleet.shed", summary.shed as f64);
            r.counts
                .insert("fleet.peak_depth", summary.peak_depth as f64);
            r.counts.insert("store.fits", outcome.fits as f64);
            r.counts.insert("store.refits", outcome.refits as f64);
            r.counts.insert("store.evictions", outcome.evictions as f64);
            r.counts.insert("store.scored", outcome.scored as f64);
        }
        self.first.get_or_insert(outcome);
        self.last = Some(outcome);
        Ok(r)
    }

    fn replay(&mut self, t: Trace<'_>, r: &mut PassResult) -> Result<(), String> {
        let outcome = self.last.ok_or("no pass ran")?;
        let replay = self.store_replay(t)?;
        self.compare(&replay.outcome, &outcome, r);
        let (core_alarms, core_traces) = self.core_replay(&replay.refit_at, t)?;
        r.check(core_alarms == outcome.alarms, || {
            format!(
                "pipelines built like the store's raised {core_alarms} alarms, the service {}",
                outcome.alarms
            )
        });
        r.counts.insert("core.traces", core_traces as f64);
        Ok(())
    }

    fn finish(&mut self, traced: bool, out: &mut PassResult) -> Result<(), String> {
        if traced {
            return Ok(());
        }
        let first = self.first.ok_or("no pass ran")?;
        let replay = self.store_replay(Trace::OFF)?;
        self.compare(&replay.outcome, &first, out);
        Ok(())
    }

    fn describe(&self, l: &crate::stats::Summary) -> Vec<String> {
        let tail = l.tail_level.map_or("max".to_string(), |p| format!("p{p}"));
        vec![
            format!(
                "admit_p50_us      {:.3} us ({} admissions)",
                l.p50 * 1e3,
                l.count
            ),
            format!(
                "admit_p99_us      {:.3} us ({tail}, {} admissions)",
                l.tail * 1e3,
                l.count
            ),
        ]
    }
}

impl Fleet {
    fn labels(&self, chip: usize) -> LabelSet {
        let id = &self.chip_ids[chip];
        let shard = chip_key(id) % self.config.shards as u64;
        LabelSet::new()
            .with("shard", shard.to_string())
            .with("chip", id.as_str())
    }

    fn batch(&self, job: &Job) -> Vec<Vec<f64>> {
        job.traces.iter().map(|&i| self.pool[i].clone()).collect()
    }

    /// The service must deliver what one store per shard, driven
    /// directly with the same batches in the same order, produces.
    fn compare(&self, expected: &Outcome, got: &Outcome, r: &mut PassResult) {
        let diff = expected.alarms.abs_diff(got.alarms);
        r.failures.record(0, diff);
        if expected != got {
            r.errors.push(format!(
                "service outcome {got:?} differs from the direct store replay's {expected:?}"
            ));
        }
    }

    /// Drives one [`PipelineStore`] per shard with the pass's batches.
    fn store_replay(&self, t: Trace<'_>) -> Result<StoreReplay, String> {
        let shards = self.config.shards;
        let mut stores: Vec<PipelineStore> = (0..shards)
            .map(|s| {
                PipelineStore::new(
                    self.config.store,
                    self.config.golden_traces,
                    self.config.baseline_mode,
                    LabelSet::new().with("shard", s.to_string()),
                )
            })
            .collect();
        let mut outcome = Outcome::default();
        let mut refit_at = Vec::with_capacity(self.jobs.len());
        for (b, job) in self.jobs.iter().enumerate() {
            let id = &self.chip_ids[job.chip];
            let store = &mut stores[(chip_key(id) % shards as u64) as usize];
            let traces = self.batch(job);
            let refits = store.refits();
            let o = t
                .span("store.ingest", b as u64, |_| store.ingest(id, &traces))
                .map_err(|e| e.to_string())?;
            refit_at.push(store.refits() > refits);
            outcome.scored += (o.scored + o.warmup) as u64;
            outcome.rejected += o.rejected as u64;
            outcome.alarms += o.alarms as u64;
        }
        for s in &stores {
            if s.cold_drops() > 0 {
                return Err("the cold store dropped a chip".into());
            }
            outcome.fits += s.fits();
            outcome.refits += s.refits();
            outcome.evictions += s.evictions();
        }
        Ok(StoreReplay { outcome, refit_at })
    }

    /// Feeds every chip's stream through a [`DetectionPipeline`] built
    /// like the store's, fitted where the store fitted: after the
    /// cold-start golden traces, and again wherever the store re-fitted
    /// a revived chip from its baseline window. Returns the alarms and
    /// the traces scored.
    fn core_replay(&self, refit_at: &[bool], t: Trace<'_>) -> Result<(u64, u64), String> {
        struct Chip {
            baseline: VecDeque<Vec<f64>>,
            pipeline: Option<DetectionPipeline>,
        }
        let window = self.config.store.baseline_window;
        let sanitizer = TraceSanitizer::default();
        let mut chips: Vec<Chip> = (0..self.chip_ids.len())
            .map(|_| Chip {
                baseline: VecDeque::new(),
                pipeline: None,
            })
            .collect();
        let (mut alarms, mut scored) = (0u64, 0u64);
        for (b, job) in self.jobs.iter().enumerate() {
            let id = b as u64;
            let chip = &mut chips[job.chip];
            if refit_at[b] {
                chip.pipeline = Some(fit(&chip.baseline, self.labels(job.chip), t, id)?);
            }
            for &i in &job.traces {
                let trace = &self.pool[i];
                if let Some(pipeline) = &mut chip.pipeline {
                    t.span("core.sanitize", id, |_| black_box(sanitizer.inspect(trace)));
                    let o = t.span("core.ingest", id, |_| pipeline.ingest_trace(trace));
                    alarms += u64::from(o.alarm.is_some());
                    scored += 1;
                }
                chip.baseline.push_back(trace.clone());
                if chip.baseline.len() > window {
                    chip.baseline.pop_front();
                }
                if chip.pipeline.is_none() && chip.baseline.len() >= self.config.golden_traces {
                    chip.pipeline = Some(fit(&chip.baseline, self.labels(job.chip), t, id)?);
                }
            }
        }
        Ok((alarms, scored))
    }
}

/// Fits a golden fingerprint on `baseline` and builds the detection
/// pipeline the fleet store builds for a chip.
fn fit(
    baseline: &VecDeque<Vec<f64>>,
    labels: LabelSet,
    t: Trace<'_>,
    id: u64,
) -> Result<DetectionPipeline, String> {
    t.span("core.fit", id, |_| {
        let golden = TraceSet::new(baseline.iter().cloned().collect(), SAMPLE_RATE_HZ)?;
        let config = FingerprintConfig {
            pca_components: None,
            threshold_margin: 1.25,
            ..FingerprintConfig::default()
        };
        let fingerprint = GoldenFingerprint::fit(&golden, config)?;
        Ok(DetectionPipeline::builder()
            .detector(Box::new(EuclideanDetector::new(fingerprint)))
            .sanitizer(TraceSanitizer::default())
            .labels(labels)
            .build())
    })
    .map_err(|e: emtrust::TrustError| e.to_string())
}
