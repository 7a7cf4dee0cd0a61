//! Replays the simulation layer that `TestBench::collect*` and
//! `SensorArray::collect_with_activity` hide: the same chip, Trojan
//! arming, warm-up block and stimulus, driven through `emtrust-sim`'s
//! and `emtrust-aes`'s public functions under `sim.encrypt` spans.
//!
//! The workloads measure the replayed activity through the measurement
//! layers themselves and compare the result with the entry point's
//! output bit for bit, which proves the decomposition did the same work.

use crate::spans::Trace;
use emtrust::acquisition::T2_LEAK_CURRENT_A;
use emtrust_aes::netlist::run_encryption_with;
use emtrust_aes::reference::Aes128;
use emtrust_sim::{ActivityTrace, Simulator};
use emtrust_trojan::{ProtectedChip, TrojanKind};

/// One recorded stretch of activity and its per-cycle extra leakage
/// (present when the armed Trojan has a leakage channel, as T2 does).
#[derive(Debug)]
pub struct Recorded {
    /// Switching activity.
    pub activity: ActivityTrace,
    /// Per-cycle extra leakage current in amperes.
    pub leak: Option<Vec<f64>>,
}

/// Span id of trace `i` of acquisition `acq`.
pub fn trace_id(acq: u64, i: usize) -> u64 {
    acq * 1000 + i as u64
}

/// The noise seed the acquisition entry points give trace `i` of a
/// campaign seeded `seed` (first acquisition attempt).
pub fn trace_seed(seed: u64, i: usize) -> u64 {
    seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Simulation statistics summed over the replays of a traced pass.
#[derive(Debug, Default)]
pub struct SimCounts {
    /// Clock cycles simulated, warm-up blocks included.
    pub cycles: u64,
    /// Toggles recorded.
    pub toggles: u64,
    /// Encryptions whose ciphertext disagreed with the reference AES.
    pub wrong_ciphertexts: u64,
}

impl SimCounts {
    /// Adds one replay's statistics.
    pub fn add(&mut self, replay: &Replay<'_>) {
        self.cycles += replay.cycles;
        self.toggles += replay.toggles;
        self.wrong_ciphertexts += replay.wrong_ciphertexts;
    }
}

/// A simulator over the chip with one Trojan (or none) armed.
pub struct Replay<'c> {
    chip: &'c ProtectedChip,
    sim: Simulator<'c>,
    key: [u8; 16],
    cipher: Aes128,
    leak_sense: Option<emtrust_netlist::NetId>,
    /// Clock cycles simulated, warm-up included.
    pub cycles: u64,
    /// Toggles recorded.
    pub toggles: u64,
    /// Encryptions whose ciphertext disagreed with the reference AES.
    pub wrong_ciphertexts: u64,
}

impl<'c> Replay<'c> {
    /// A fresh simulator, every Trojan disarmed except `armed`, exactly
    /// as the acquisition entry points prepare theirs.
    pub fn new(
        chip: &'c ProtectedChip,
        key: [u8; 16],
        armed: Option<TrojanKind>,
    ) -> Result<Self, String> {
        let mut sim = chip.simulator().map_err(|e| e.to_string())?;
        chip.disarm_all(&mut sim);
        if let Some(kind) = armed {
            chip.arm(&mut sim, kind, true);
        }
        let leak_sense = armed
            .and_then(|k| chip.trojan_ports(k))
            .and_then(|p| p.leak_sense);
        Ok(Replay {
            chip,
            sim,
            key,
            cipher: Aes128::new(key),
            leak_sense,
            cycles: 0,
            toggles: 0,
            wrong_ciphertexts: 0,
        })
    }

    fn encrypt(&mut self, pt: [u8; 16], trace: Trace<'_>, id: u64, leak: &mut Vec<f64>) {
        let before = self.sim.cycle();
        let (chip, key, sense) = (self.chip, self.key, self.leak_sense);
        let sim = &mut self.sim;
        let ct = trace.span("sim.encrypt", id, |_| {
            run_encryption_with(sim, chip.aes_ports(), key, pt, |s| {
                if let Some(net) = sense {
                    // The leakage path opens while the sense bit is low.
                    leak.push(if s.value(net) { 0.0 } else { T2_LEAK_CURRENT_A });
                }
            })
        });
        self.cycles += self.sim.cycle() - before;
        if ct != self.cipher.encrypt_block(pt) {
            self.wrong_ciphertexts += 1;
        }
    }

    /// The unrecorded warm-up block.
    pub fn warm_up(&mut self, pt: [u8; 16], trace: Trace<'_>) {
        self.encrypt(pt, trace, u64::MAX, &mut Vec::new());
    }

    /// Records the blocks `pts` back to back as one stretch of activity
    /// (one trace when `pts` has one block, one window otherwise).
    pub fn record(&mut self, pts: &[[u8; 16]], trace: Trace<'_>, id: u64) -> Recorded {
        self.sim.start_recording();
        let mut leak = Vec::new();
        for &pt in pts {
            self.encrypt(pt, trace, id, &mut leak);
        }
        let activity = self.sim.take_recording();
        self.toggles += activity.total_toggles() as u64;
        Recorded {
            activity,
            leak: self.leak_sense.is_some().then_some(leak),
        }
    }
}
