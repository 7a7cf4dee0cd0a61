//! `array`: a 4×2 sensor array over the four-Trojan chip, screening and
//! attributing each Trojan down to cells.
//!
//! One pass collects a golden campaign with its switching activity,
//! fits every tile, then arms each Trojan in turn, collects a suspect
//! campaign and attributes it with [`CellEvidence`]. One simulation pass
//! feeds eight weight sets, so current synthesis does more work here
//! than simulation does.
//!
//! The workload seed sets the campaign seed (the stimulus and the
//! noise) and the order the Trojans are attributed in.

use crate::replay::{trace_id, trace_seed, Recorded, Replay, SimCounts};
use crate::spans::Trace;
use crate::{mix, Args, PassResult, Workload, KEY};
use emtrust::array::SensorArray;
use emtrust::attribution::CellEvidence;
use emtrust::fingerprint::FingerprintConfig;
use emtrust::TraceSet;
use emtrust_em::{EmArray, VoltageTrace};
use emtrust_netlist::library::Library;
use emtrust_power::{ClockConfig, CurrentModel};
use emtrust_sim::ToggleActivity;
use emtrust_trojan::{ProtectedChip, TrojanKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

const ROWS: usize = 4;
const COLS: usize = 2;
const TURNS: usize = 8;
const GOLDEN: usize = 32;
const SUSPECT: usize = 16;

/// Per Trojan: the worst region rank (0 = top) and the lowest cell
/// AUROC recorded at the seed run. A pass fails if any Trojan ranks
/// lower or scores below.
pub const RECORDED: [(TrojanKind, usize, f64); 4] = [
    (TrojanKind::T1AmLeaker, 0, 0.936_590_436_590_436_6),
    (TrojanKind::T2LeakageLeaker, 0, 1.0),
    (TrojanKind::T3CdmaLeaker, 0, 0.778_399_145_542_305_8),
    (TrojanKind::T4PowerDegrader, 0, 1.0),
];

/// Set-up state of the `array` workload.
pub struct Array {
    chip: &'static ProtectedChip,
    array: SensorArray<'static>,
    campaign_seed: u64,
    order: Vec<TrojanKind>,
    /// The first traced pass's replayed campaigns (per-tile traces).
    replayed: Option<Vec<(Option<TrojanKind>, Vec<TraceSet>)>>,
}

impl Workload for Array {
    const LATENCY: &'static str = "attribution_ms";

    fn setup(chip: &'static ProtectedChip, args: &Args) -> Result<Self, String> {
        let array = SensorArray::builder(chip)
            .with_grid(ROWS, COLS)
            .and_then(|b| b.with_turns(TURNS))
            .map_err(|e| e.to_string())?
            .with_fingerprint(FingerprintConfig {
                pca_components: None,
                parallel: crate::pool(),
                ..FingerprintConfig::default()
            })
            .with_parallel(crate::pool())
            .build()
            .map_err(|e| e.to_string())?;
        let mut order: Vec<TrojanKind> = RECORDED.iter().map(|(k, _, _)| *k).collect();
        let mut rng = StdRng::seed_from_u64(mix(args.seed, 0));
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        Ok(Array {
            chip,
            array,
            campaign_seed: mix(args.seed, 1),
            order,
            replayed: None,
        })
    }

    fn setup_traced(&mut self, out: &mut BTreeMap<&'static str, f64>) -> Result<(), String> {
        // The array's coupling maps, built again from outside to time
        // them; the weights must match the array's own.
        let t0 = Instant::now();
        let em = EmArray::build(
            self.chip.netlist(),
            self.array.floorplan(),
            CurrentModel::new(Library::generic_180nm(), ClockConfig::reference()),
            ROWS,
            COLS,
            TURNS,
        )
        .map_err(|e| e.to_string())?;
        out.insert("em.coupling_setup_s", t0.elapsed().as_secs_f64());
        let same = em
            .tiles()
            .iter()
            .zip(self.array.em_array().tiles())
            .all(|(a, b)| a.sensor().weights() == b.sensor().weights());
        if !same {
            return Err("rebuilt coupling weights differ from the array's".into());
        }
        Ok(())
    }

    fn pass(&mut self, t: Trace<'_>, traced: bool) -> Result<PassResult, String> {
        let mut r = PassResult::default();
        let mut sim = SimCounts::default();
        let mut replayed = Vec::new();
        let t0 = Instant::now();
        let (golden, golden_activity) = self.acquire(None, GOLDEN, 0, t, traced, &mut sim)?;
        t.span("core.fit", 0, |_| self.array.fit_golden(&golden))
            .map_err(|e| e.to_string())?;
        if traced {
            replayed.push((None, golden));
        }
        for (k, kind) in self.order.clone().into_iter().enumerate() {
            let id = 1 + k as u64;
            let t1 = Instant::now();
            let (suspects, activity) =
                self.acquire(Some(kind), SUSPECT, id, t, traced, &mut sim)?;
            let evidence = CellEvidence {
                baseline: &golden_activity,
                suspect: &activity,
            };
            let attribution = t
                .span("core.attribute", id, |_| {
                    self.array.attribute(&suspects, Some(&evidence))
                })
                .map_err(|e| e.to_string())?;
            r.latencies_ms.push(t1.elapsed().as_secs_f64() * 1e3);
            let tag = kind.module_tag();
            let rank = attribution.region_rank(tag);
            let auroc = attribution.auroc(|c| c.region == tag);
            let (_, worst_rank, min_auroc) = RECORDED
                .iter()
                .find(|(k, _, _)| *k == kind)
                .copied()
                .ok_or("Trojan missing from the recorded table")?;
            r.check(rank.is_some_and(|x| x <= worst_rank), || {
                format!("{kind:?} region rank {rank:?}, recorded {worst_rank}")
            });
            r.check(auroc.is_some_and(|a| a >= min_auroc), || {
                format!("{kind:?} cell AUROC {auroc:?}, recorded {min_auroc}")
            });
            r.signature.push(rank.map_or(u64::MAX, |x| x as u64));
            r.signature.push(auroc.map_or(u64::MAX, f64::to_bits));
            if traced {
                replayed.push((Some(kind), suspects));
            }
        }
        r.traces = (GOLDEN + SUSPECT * self.order.len()) as u64;
        r.failures.record(r.traces, 0);
        r.busy_s = t0.elapsed().as_secs_f64();
        if traced {
            r.check(sim.wrong_ciphertexts == 0, || {
                format!(
                    "{} ciphertexts disagree with the reference AES",
                    sim.wrong_ciphertexts
                )
            });
            r.counts.insert("sim.cycles", sim.cycles as f64);
            r.counts.insert("sim.toggles", sim.toggles as f64);
            r.counts.insert("power.events", sim.toggles as f64);
            r.counts
                .insert("power.weight_sets", self.array.em_array().len() as f64);
            if self.replayed.is_none() {
                self.replayed = Some(replayed);
            }
        }
        Ok(r)
    }

    fn finish(&mut self, traced: bool, out: &mut PassResult) -> Result<(), String> {
        if !traced {
            return Ok(());
        }
        let replayed = self.replayed.take().ok_or("no traced pass ran")?;
        for (armed, sets) in replayed {
            let n = if armed.is_some() { SUSPECT } else { GOLDEN };
            let direct = self
                .array
                .collect(KEY, n, armed, self.campaign_seed)
                .map_err(|e| e.to_string())?;
            let same = direct.len() == sets.len()
                && direct
                    .iter()
                    .zip(&sets)
                    .all(|(a, b)| crate::same_bits(a.traces(), b.traces()));
            out.check(same, || {
                format!("replayed {armed:?} campaign differs from the entry point's output")
            });
        }
        Ok(())
    }
}

impl Array {
    /// One campaign: through `SensorArray::collect_with_activity`, or —
    /// traced — replayed layer by layer.
    fn acquire(
        &self,
        armed: Option<TrojanKind>,
        n: usize,
        id: u64,
        t: Trace<'_>,
        traced: bool,
        sim: &mut SimCounts,
    ) -> Result<(Vec<TraceSet>, ToggleActivity), String> {
        if !traced {
            return self
                .array
                .collect_with_activity(KEY, n, armed, self.campaign_seed)
                .map_err(|e| e.to_string());
        }
        let seed = self.campaign_seed;
        let em = self.array.em_array();
        let netlist = self.chip.netlist();
        let pt: [u8; 16] = StdRng::seed_from_u64(seed ^ 0x97).gen();
        let mut replay = Replay::new(self.chip, KEY, armed)?;
        replay.warm_up(pt, t);
        let recorded: Vec<Recorded> = (0..n)
            .map(|i| replay.record(&[pt], t, trace_id(id, i)))
            .collect();
        sim.add(&replay);
        let weight_sets: Vec<&[f64]> = em.tiles().iter().map(|t| t.sensor().weights()).collect();
        let model = em
            .tiles()
            .first()
            .map(|tile| tile.sensor().model())
            .ok_or("the array has no tiles")?;
        let per_trace =
            self.array
                .config()
                .parallel
                .try_map(n, |i| -> Result<Vec<VoltageTrace>, String> {
                    let rec = &recorded[i];
                    let leak = rec.leak.as_deref();
                    let id = trace_id(id, i);
                    t.span("power.synthesize", id, |_| {
                        model
                            .synthesize_multi(netlist, &rec.activity, &weight_sets, leak, 1)
                            .map(black_box)
                    })
                    .map_err(|e| e.to_string())?;
                    t.span("em.measure", id, |_| {
                        em.measure_multi(netlist, &rec.activity, leak, &[], trace_seed(seed, i), 1)
                    })
                    .map_err(|e| e.to_string())
                })?;
        let mut per_tile: Vec<Vec<Vec<f64>>> = vec![Vec::with_capacity(n); em.len()];
        for tiles in per_trace {
            for (tile, trace) in per_tile.iter_mut().zip(tiles) {
                tile.push(trace.into_samples());
            }
        }
        let mut toggles = ToggleActivity::new();
        for rec in &recorded {
            toggles.absorb(&rec.activity);
        }
        let fs = self.array.clock().sample_rate_hz();
        let sets = per_tile
            .into_iter()
            .map(|traces| TraceSet::new(traces, fs))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        Ok((sets, toggles))
    }
}
