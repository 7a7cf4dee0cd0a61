//! `campaign`: the paper's §IV detection flow on the four-Trojan chip,
//! through the simulation bench and the on-chip channel.
//!
//! One pass fits a golden fingerprint, screens held-out golden traces
//! and each Trojan's suspects through a [`DetectionPipeline`], then runs
//! continuous monitoring windows with the A2 analog Trojan disarmed and
//! armed. Trojan-carrying netlists simulate serially, so simulation is
//! most of the work here.
//!
//! The stimulus is the fixed, known operation the fingerprint is taken
//! under; the workload seed sets the measurement noise of every trace
//! and the order the Trojans are screened in. The alarm counts and the
//! simulated toggle count therefore repeat exactly for every seed.

use crate::replay::{trace_id, trace_seed, Recorded, Replay, SimCounts};
use crate::spans::Trace;
use crate::{mix, Args, PassResult, Workload, KEY, PT};
use emtrust::acquisition::{Stimulus, TestBench};
use emtrust::fingerprint::{FingerprintConfig, GoldenFingerprint};
use emtrust::spectral::{SpectralConfig, SpectralDetector};
use emtrust::{DetectionPipeline, EuclideanDetector, SpectralWindowDetector, TraceSet};
use emtrust_em::pipeline::{EmSensor, PointCurrentSource};
use emtrust_em::{Coil, VoltageTrace};
use emtrust_layout::spiral::SpiralSensor;
use emtrust_netlist::library::Library;
use emtrust_power::{ClockConfig, CurrentModel};
use emtrust_silicon::Channel;
use emtrust_trojan::{A2Trojan, ProtectedChip, TrojanKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Traces per golden, held-out and suspect set.
const TRACES: usize = 32;
/// Encryptions per continuous monitoring window.
const BLOCKS: usize = 48;
/// Monitored windows per pass; odd-numbered ones have A2 armed.
const WINDOWS: usize = 4;
/// Seed of the golden window; monitored window `w` uses `+ 1 + w`. The
/// window stimulus is fixed so the simulated activity is too.
const WINDOW_SEED: u64 = 0xA2_57EC;

/// Alarms per `TRACES` suspects, recorded at the seed run. The counts
/// do not move with the noise seed (T1's modulation is on for exactly
/// half the blocks; the others alarm on every trace).
pub const EXPECTED_ALARMS: [(TrojanKind, u64); 4] = [
    (TrojanKind::T1AmLeaker, 16),
    (TrojanKind::T2LeakageLeaker, 32),
    (TrojanKind::T3CdmaLeaker, 32),
    (TrojanKind::T4PowerDegrader, 32),
];

/// Toggles simulated per pass (every trace and window), recorded at the
/// seed run. A change to the simulator must leave it unchanged.
pub const EXPECTED_TOGGLES: u64 = 22_745_651;

/// The detection fingerprint: raw energy features (no PCA basis, which
/// projects T3's weak CDMA leak away).
fn fingerprint_config() -> FingerprintConfig {
    FingerprintConfig {
        pca_components: None,
        parallel: crate::pool(),
        ..FingerprintConfig::default()
    }
}

/// One acquisition of a pass, kept so the traced run can re-run the
/// entry point and compare.
#[derive(Debug, Clone, Copy)]
enum Acquisition {
    Traces {
        armed: Option<TrojanKind>,
        seed: u64,
    },
    Window {
        seed: u64,
        a2: bool,
    },
}

/// Set-up state of the `campaign` workload.
pub struct Campaign {
    chip: &'static ProtectedChip,
    bench: TestBench<'static>,
    seed: u64,
    order: Vec<TrojanKind>,
    /// The on-chip sensor the traced run measures through, built like
    /// the bench's own.
    sensor: Option<EmSensor>,
    /// The first traced pass's replayed outputs.
    replayed: Option<Vec<(Acquisition, Vec<Vec<f64>>)>>,
}

impl Workload for Campaign {
    const LATENCY: &'static str = "window_verdict_ms";

    fn setup(chip: &'static ProtectedChip, args: &Args) -> Result<Self, String> {
        let bench = TestBench::simulation(chip)
            .map_err(|e| e.to_string())?
            .with_parallel(crate::pool())
            .with_a2(A2Trojan::new(10e6));
        // The seed picks the order the Trojans are screened in.
        let mut order: Vec<TrojanKind> = EXPECTED_ALARMS.iter().map(|(k, _)| *k).collect();
        let mut rng = StdRng::seed_from_u64(mix(args.seed, 0));
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        Ok(Campaign {
            chip,
            bench,
            seed: args.seed,
            order,
            sensor: None,
            replayed: None,
        })
    }

    fn setup_traced(&mut self, out: &mut BTreeMap<&'static str, f64>) -> Result<(), String> {
        let t0 = Instant::now();
        let die = self.bench.floorplan().die();
        let sensor = EmSensor::new(
            Coil::OnChip(SpiralSensor::for_die(die).map_err(|e| e.to_string())?),
            self.chip.netlist(),
            self.bench.floorplan(),
            CurrentModel::new(Library::generic_180nm(), ClockConfig::reference()),
        )
        .map_err(|e| e.to_string())?;
        out.insert("em.coupling_setup_s", t0.elapsed().as_secs_f64());
        self.sensor = Some(sensor);
        Ok(())
    }

    fn pass(&mut self, t: Trace<'_>, traced: bool) -> Result<PassResult, String> {
        let mut r = PassResult::default();
        let mut replayed = Vec::new();
        let mut sim = SimCounts::default();
        let seed = self.seed;
        self.bench.arm_a2(false).map_err(|e| e.to_string())?;

        // Trace phase: golden fit, held-out golden and per-Trojan suspects.
        let t0 = Instant::now();
        let golden_acq = Acquisition::Traces {
            armed: None,
            seed: mix(seed, 1),
        };
        let golden = self.acquire(golden_acq, 0, t, traced, &mut sim, &mut replayed)?;
        let golden = TraceSet::new(golden, self.bench.clock().sample_rate_hz())
            .map_err(|e| e.to_string())?;
        let fp = t
            .span("core.fit", 0, |_| {
                GoldenFingerprint::fit(&golden, fingerprint_config())
            })
            .map_err(|e| e.to_string())?;
        let window_acq = Acquisition::Window {
            seed: WINDOW_SEED,
            a2: false,
        };
        let golden_window =
            self.acquire_window(window_acq, 1, t, traced, &mut sim, &mut replayed)?;
        let spectral = t
            .span("core.fit", 1, |_| {
                SpectralDetector::fit(&golden_window, SpectralConfig::default())
            })
            .map_err(|e| e.to_string())?;
        let mut pipeline = DetectionPipeline::builder()
            .detector(Box::new(EuclideanDetector::new(fp)))
            .detector(Box::new(SpectralWindowDetector::new(spectral)))
            .build();

        let mut screens: Vec<(Option<TrojanKind>, u64, u64)> = vec![(None, mix(seed, 2), 0)];
        for (k, kind) in self.order.clone().into_iter().enumerate() {
            let expected = EXPECTED_ALARMS
                .iter()
                .find(|(e, _)| *e == kind)
                .map_or(0, |(_, n)| *n);
            screens.push((Some(kind), mix(seed, 10 + k as u64), expected));
        }
        for (i, (armed, noise_seed, expected)) in screens.into_iter().enumerate() {
            let acq = Acquisition::Traces {
                armed,
                seed: noise_seed,
            };
            let id = 2 + i as u64;
            let traces = self.acquire(acq, id, t, traced, &mut sim, &mut replayed)?;
            let batch = t
                .span("core.ingest", id, |_| pipeline.try_ingest_batch(&traces))
                .map_err(|e| e.to_string())?;
            let alarms = batch.alarms.len() as u64;
            r.tally(TRACES as u64, alarms.abs_diff(expected), || {
                format!("{armed:?}: {alarms}/{TRACES} alarms, expected {expected}")
            });
            r.signature.push(alarms);
        }
        r.traces = (TRACES * (2 + self.order.len())) as u64;
        r.busy_s = t0.elapsed().as_secs_f64();

        // Monitoring windows: acquisition start to window verdict.
        for w in 0..WINDOWS {
            let a2 = w % 2 == 1;
            self.bench.arm_a2(a2).map_err(|e| e.to_string())?;
            let t1 = Instant::now();
            let acq = Acquisition::Window {
                seed: WINDOW_SEED + 1 + w as u64,
                a2,
            };
            let id = 100 + w as u64;
            let window = self.acquire_window(acq, id, t, traced, &mut sim, &mut replayed)?;
            let outcome = t.span("core.window", id, |_| pipeline.ingest_window(&window));
            r.latencies_ms.push(t1.elapsed().as_secs_f64() * 1e3);
            let alarmed = outcome.alarm.is_some();
            r.check(alarmed == a2, || {
                format!("window {w} (A2 armed: {a2}) alarmed: {alarmed}")
            });
            r.signature.push(u64::from(alarmed));
        }
        self.bench.arm_a2(false).map_err(|e| e.to_string())?;

        if traced {
            r.check(sim.wrong_ciphertexts == 0, || {
                format!(
                    "{} ciphertexts disagree with the reference AES",
                    sim.wrong_ciphertexts
                )
            });
            r.check(sim.toggles == EXPECTED_TOGGLES, || {
                format!(
                    "simulated {} toggles, recorded {EXPECTED_TOGGLES}",
                    sim.toggles
                )
            });
            r.counts.insert("sim.cycles", sim.cycles as f64);
            r.counts.insert("sim.toggles", sim.toggles as f64);
            r.counts.insert("power.events", sim.toggles as f64);
            r.counts.insert("power.weight_sets", 1.0);
            r.counts
                .insert("core.traces", (TRACES * (1 + self.order.len())) as f64);
            if self.replayed.is_none() {
                self.replayed = Some(replayed);
            }
        }
        Ok(r)
    }

    fn finish(&mut self, traced: bool, out: &mut PassResult) -> Result<(), String> {
        // Every Trojan state must still encrypt correctly.
        let mut wrong = 0;
        for armed in std::iter::once(None).chain(self.order.iter().copied().map(Some)) {
            let mut replay = Replay::new(self.chip, KEY, armed)?;
            replay.warm_up(PT, Trace::OFF);
            replay.record(&[PT], Trace::OFF, 0);
            wrong += replay.wrong_ciphertexts;
        }
        out.check(wrong == 0, || {
            format!("{wrong} ciphertexts disagree with the reference AES")
        });
        if !traced {
            return Ok(());
        }
        // The replayed layers must reproduce the entry points bit for bit.
        let replayed = self.replayed.take().ok_or("no traced pass ran")?;
        for (acq, samples) in replayed {
            let direct = match acq {
                Acquisition::Traces { armed, seed } => self.collect(armed, seed)?,
                Acquisition::Window { seed, a2 } => {
                    self.bench.arm_a2(a2).map_err(|e| e.to_string())?;
                    vec![self.collect_window(seed)?.into_samples()]
                }
            };
            out.check(crate::same_bits(&direct, &samples), || {
                format!("replayed {acq:?} differs from the entry point's output")
            });
        }
        self.bench.arm_a2(false).map_err(|e| e.to_string())?;
        Ok(())
    }
}

impl Campaign {
    fn collect(&self, armed: Option<TrojanKind>, seed: u64) -> Result<Vec<Vec<f64>>, String> {
        let set = self
            .bench
            .collect_with(
                KEY,
                Stimulus::Fixed(PT),
                TRACES,
                armed,
                Channel::OnChipSensor,
                seed,
            )
            .map_err(|e| e.to_string())?;
        Ok(set.traces().to_vec())
    }

    fn collect_window(&self, seed: u64) -> Result<VoltageTrace, String> {
        self.bench
            .collect_continuous(KEY, BLOCKS, None, Channel::OnChipSensor, seed)
            .map_err(|e| e.to_string())
    }

    fn sensor(&self) -> Result<&EmSensor, String> {
        self.sensor
            .as_ref()
            .ok_or_else(|| "traced set-up missing".to_string())
    }

    /// A trace set: through `TestBench::collect_with`, or — traced —
    /// replayed layer by layer.
    fn acquire(
        &self,
        acq: Acquisition,
        id: u64,
        t: Trace<'_>,
        traced: bool,
        sim: &mut SimCounts,
        replayed: &mut Vec<(Acquisition, Vec<Vec<f64>>)>,
    ) -> Result<Vec<Vec<f64>>, String> {
        let Acquisition::Traces { armed, seed } = acq else {
            return Err("not a trace acquisition".into());
        };
        if !traced {
            return self.collect(armed, seed);
        }
        let sensor = self.sensor()?;
        let netlist = self.chip.netlist();
        let mut replay = Replay::new(self.chip, KEY, armed)?;
        replay.warm_up(PT, t);
        let recorded: Vec<Recorded> = (0..TRACES)
            .map(|i| replay.record(&[PT], t, trace_id(id, i)))
            .collect();
        sim.add(&replay);
        let samples = self
            .bench
            .parallel()
            .try_map(TRACES, |i| -> Result<Vec<f64>, String> {
                let rec = &recorded[i];
                let leak = rec.leak.as_deref();
                let id = trace_id(id, i);
                t.span("power.synthesize", id, |_| {
                    sensor
                        .model()
                        .synthesize_with(netlist, &rec.activity, Some(sensor.weights()), leak, 1)
                        .map(black_box)
                })
                .map_err(|e| e.to_string())?;
                let trace = t
                    .span("em.measure", id, |_| {
                        sensor.measure_with(
                            netlist,
                            &rec.activity,
                            leak,
                            &[],
                            trace_seed(seed, i),
                            1,
                        )
                    })
                    .map_err(|e| e.to_string())?;
                Ok(trace.into_samples())
            })?;
        replayed.push((acq, samples.clone()));
        Ok(samples)
    }

    /// A continuous window: through `TestBench::collect_continuous`, or —
    /// traced — replayed layer by layer.
    fn acquire_window(
        &self,
        acq: Acquisition,
        id: u64,
        t: Trace<'_>,
        traced: bool,
        sim: &mut SimCounts,
        replayed: &mut Vec<(Acquisition, Vec<Vec<f64>>)>,
    ) -> Result<VoltageTrace, String> {
        let Acquisition::Window { seed, .. } = acq else {
            return Err("not a window acquisition".into());
        };
        if !traced {
            return self.collect_window(seed);
        }
        let sensor = self.sensor()?;
        let netlist = self.chip.netlist();
        let workers = self.bench.parallel().workers;
        let mut rng = StdRng::seed_from_u64(seed);
        let pts: Vec<[u8; 16]> = (0..BLOCKS).map(|_| rng.gen()).collect();
        let mut replay = Replay::new(self.chip, KEY, None)?;
        let rec = replay.record(&pts, t, id);
        sim.add(&replay);
        let clock = self.bench.clock();
        let injections: Vec<PointCurrentSource> = match self.bench.a2() {
            Some(a2) if a2.is_triggering() => vec![PointCurrentSource {
                location_um: a2.location_um(),
                samples: a2.current_samples(
                    rec.activity.cycle_count() * clock.samples_per_cycle(),
                    clock.sample_rate_hz(),
                ),
            }],
            _ => Vec::new(),
        };
        t.span("power.synthesize", id, |_| {
            sensor
                .model()
                .synthesize_with(
                    netlist,
                    &rec.activity,
                    Some(sensor.weights()),
                    None,
                    workers,
                )
                .map(black_box)
        })
        .map_err(|e| e.to_string())?;
        let window = t
            .span("em.measure", id, |_| {
                sensor.measure_with(netlist, &rec.activity, None, &injections, seed, workers)
            })
            .map_err(|e| e.to_string())?;
        replayed.push((acq, vec![window.samples().to_vec()]));
        Ok(window)
    }
}
