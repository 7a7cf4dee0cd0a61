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

//! Spatial Trojan localization with the multi-sensor EM array.
//!
//! A 4×2 grid of sub-spirals tiles the die; every tile runs its own
//! detection pipeline against its own golden fingerprint, and the
//! array's localizer fuses the per-tile anomaly margins into a heat-map
//! centroid that is ranked against the floorplan's placement regions. Each of the four digital Trojans is
//! armed in turn and the experiment reports whether its placement
//! region (`trojan1` … `trojan4`) comes back at rank 1 (`hit@1`) or
//! within the top three (`hit@3`).
//!
//! The array shares one logic simulation and one current-synthesis pass
//! per encryption across all eight sensors, so the interesting overhead
//! is *per sensor*: collection wall-clock divided by the sensor count,
//! against the single-coil `TestBench` path on the same workload.
//!
//! This binary reports the region-level table only; `exp_attribution`
//! runs the same campaign at cell granularity under leave-one-Trojan-out
//! and owns the `BENCH_localization.json` artifact.

use emtrust::acquisition::TestBench;
use emtrust::array::SensorArray;
use emtrust::fingerprint::FingerprintConfig;
use emtrust_bench::{OrExit, Report, EXPERIMENT_KEY, TROJANS};
use emtrust_silicon::Channel;
use emtrust_trojan::{ProtectedChip, TrojanKind};
use std::time::Instant;

const ROWS: usize = 4;
const COLS: usize = 2;
const TURNS: usize = 8;
const N_GOLDEN: usize = 32;
const N_SUSPECT: usize = 16;

struct RegionOutcome {
    kind: TrojanKind,
    top_region: String,
    rank: Option<usize>,
    alarm_rate: f64,
}

fn main() {
    let mut report = Report::from_env("exp_localization");
    let chip = ProtectedChip::with_all_trojans();
    // Raw per-tile energy features (no PCA): T3's CDMA leak is an order
    // of magnitude weaker than the other Trojans (paper §IV-C: 0.05 vs
    // 0.25–0.28), and a per-tile PCA basis fitted on an eighth of the
    // coil signal projects it away.
    let fingerprint = FingerprintConfig {
        pca_components: None,
        ..FingerprintConfig::default()
    };
    let mut array = SensorArray::builder(&chip)
        .with_grid(ROWS, COLS)
        .or_exit("grid")
        .with_turns(TURNS)
        .or_exit("turns")
        .with_fingerprint(fingerprint)
        .build()
        .or_exit("array build");
    let sensors = array.len();

    // Golden campaign, timed against the single-coil path on the same
    // trace count and seed.
    let t0 = Instant::now();
    let golden = array
        .collect(EXPERIMENT_KEY, N_GOLDEN, None, 42)
        .or_exit("golden collection");
    let array_seconds = t0.elapsed().as_secs_f64();

    let single_bench = TestBench::simulation(&chip).or_exit("single-coil bench");
    let t0 = Instant::now();
    let _single = single_bench
        .collect(EXPERIMENT_KEY, N_GOLDEN, None, Channel::OnChipSensor, 42)
        .or_exit("single-coil collection");
    let single_seconds = t0.elapsed().as_secs_f64();
    let per_sensor_overhead_pct = 100.0 * (array_seconds / sensors as f64 / single_seconds - 1.0);

    array.fit_golden(&golden).or_exit("golden fit");

    // Arm each digital Trojan in turn and localize the excess energy.
    // Suspect campaigns reuse the golden seed: same fixed plaintext,
    // same noise draws — the per-tile excess is then purely the armed
    // Trojan's switching current, not data-dependent AES energy (a
    // different stimulus would alarm everywhere and localize nothing).
    let mut outcomes = Vec::new();
    for kind in TROJANS {
        let suspects = array
            .collect(EXPERIMENT_KEY, N_SUSPECT, Some(kind), 42)
            .or_exit("suspect collection");
        let attribution = array.attribute(&suspects, None).or_exit("attribution");
        let alarm_rate =
            attribution.heat().iter().map(|h| h.alarm_rate).sum::<f64>() / sensors as f64;
        outcomes.push(RegionOutcome {
            kind,
            top_region: attribution.top_region().unwrap_or("<none>").to_string(),
            rank: attribution.region_rank(kind.module_tag()),
            alarm_rate,
        });
    }

    let hit1 = outcomes.iter().filter(|a| a.rank == Some(0)).count();
    let hit3 = outcomes
        .iter()
        .filter(|a| a.rank.is_some_and(|r| r < 3))
        .count();
    assert!(
        hit3 == TROJANS.len(),
        "every Trojan must localize within the top-3 regions"
    );
    assert!(
        hit1 >= 2,
        "at least two Trojans must localize at rank 1 (got {hit1})"
    );

    report.table(
        &format!("Trojan localization on a {ROWS}x{COLS} sensor array"),
        &[
            "trojan",
            "placed region",
            "top region",
            "rank",
            "alarm rate",
        ],
        &outcomes
            .iter()
            .map(|a| {
                vec![
                    format!("{:?}", a.kind),
                    a.kind.module_tag().to_string(),
                    a.top_region.clone(),
                    a.rank.map_or("-".into(), |r| (r + 1).to_string()),
                    format!("{:.2}", a.alarm_rate),
                ]
            })
            .collect::<Vec<_>>(),
    );
    report.scalar("hit_at_1", hit1 as f64);
    report.scalar("hit_at_3", hit3 as f64);
    report.scalar("single_seconds", single_seconds);
    report.scalar("array_seconds", array_seconds);
    report.scalar("per_sensor_overhead_pct", per_sensor_overhead_pct);
    report.finish();
}
