//! The compiled simulation tape against the scalar netlist walk on the
//! full four-Trojan chip: AES alone, then each Trojan armed in turn.
//!
//! The scalar walk lives in `emtrust-sim` as a test-only oracle; this
//! test includes its source file directly, since a crate's `cfg(test)`
//! items are not visible to other crates.

#[path = "../crates/sim/src/oracle.rs"]
mod oracle;

use emtrust_aes::netlist::{block_to_word, run_encryption_with, word_to_block, AesPorts};
use emtrust_aes::reference::Aes128;
use emtrust_netlist::NetId;
use emtrust_sim::{ActivityTrace, CycleActivity, ToggleEvent};
use emtrust_trojan::{ProtectedChip, TrojanKind};
use oracle::Oracle;
use std::sync::OnceLock;

const KEY: [u8; 16] = *b"tape-vs-oracle!!";
const BLOCKS: [[u8; 16]; 3] = [
    *b"warm-up block...",
    *b"first recorded..",
    *b"second recorded.",
];

fn chip() -> &'static ProtectedChip {
    static CHIP: OnceLock<ProtectedChip> = OnceLock::new();
    CHIP.get_or_init(ProtectedChip::with_all_trojans)
}

/// `run_encryption_with`, driven on the oracle.
fn oracle_encrypt(
    o: &mut Oracle<'_>,
    ports: &AesPorts,
    pt: [u8; 16],
    mut observe: impl FnMut(&Oracle<'_>),
) -> [u8; 16] {
    o.set_bus(&ports.key, block_to_word(KEY));
    o.set_bus(&ports.pt, block_to_word(pt));
    o.set_input(ports.start, true);
    o.step();
    observe(o);
    o.set_input(ports.start, false);
    for _ in 0..11 {
        o.step();
        observe(o);
    }
    word_to_block(o.bus(&ports.ct))
}

/// Encrypts [`BLOCKS`] on the tape and on the oracle with `armed` (or no
/// Trojan) triggered, and holds the two to each other: the recorded
/// `ActivityTrace`, every cell output after each block, the per-cycle
/// values of T2's leakage-sense net, and the ciphertexts, which must also
/// match the reference AES.
fn assert_tape_matches_oracle(armed: Option<TrojanKind>) {
    let chip = chip();
    let ports = chip.aes_ports();
    let mut sim = chip.simulator().expect("the chip compiles");
    let mut oracle = Oracle::new(chip.netlist()).expect("the chip levelizes");
    chip.disarm_all(&mut sim);
    for kind in chip.trojan_kinds() {
        let ports = chip.trojan_ports(kind).expect("carried");
        oracle.set_input(ports.trigger, false);
    }
    if let Some(kind) = armed {
        chip.arm(&mut sim, kind, true).expect("carried");
        oracle.set_input(chip.trojan_ports(kind).expect("carried").trigger, true);
    }
    let sense = chip
        .trojan_ports(TrojanKind::T2LeakageLeaker)
        .and_then(|p| p.leak_sense)
        .expect("T2 has a leakage-sense net");
    let outputs: Vec<NetId> = chip.netlist().cells().map(|(_, c)| c.output()).collect();
    let reference = Aes128::new(KEY);

    let (mut tape_sense, mut oracle_sense) = (Vec::new(), Vec::new());
    for (i, &pt) in BLOCKS.iter().enumerate() {
        if i == 1 {
            sim.start_recording();
            oracle.start_recording();
        }
        let ct = run_encryption_with(&mut sim, ports, KEY, pt, |s| {
            tape_sense.push(s.value(sense));
        });
        let oracle_ct = oracle_encrypt(&mut oracle, ports, pt, |o| {
            oracle_sense.push(o.value(sense));
        });
        assert_eq!(ct, reference.encrypt_block(pt), "{armed:?} block {i}");
        assert_eq!(oracle_ct, ct, "{armed:?} block {i}");
        let diverged = outputs
            .iter()
            .filter(|&&net| sim.value(net) != oracle.value(net))
            .count();
        assert_eq!(diverged, 0, "{armed:?} block {i}: nets diverged");
    }
    assert_eq!(tape_sense.len(), 12 * BLOCKS.len());
    assert_eq!(tape_sense, oracle_sense, "{armed:?}: leak-sense readings");
    let trace = sim.take_recording();
    assert_eq!(trace.cycle_count(), 24);
    assert!(trace.total_toggles() > 0);
    assert_eq!(trace, oracle.take_recording(), "{armed:?}: activity");
}

#[test]
fn aes_with_every_trojan_dormant_matches_the_oracle() {
    assert_tape_matches_oracle(None);
}

#[test]
fn armed_t1_matches_the_oracle() {
    assert_tape_matches_oracle(Some(TrojanKind::T1AmLeaker));
}

#[test]
fn armed_t2_matches_the_oracle() {
    assert_tape_matches_oracle(Some(TrojanKind::T2LeakageLeaker));
}

#[test]
fn armed_t3_matches_the_oracle() {
    assert_tape_matches_oracle(Some(TrojanKind::T3CdmaLeaker));
}

#[test]
fn armed_t4_matches_the_oracle() {
    assert_tape_matches_oracle(Some(TrojanKind::T4PowerDegrader));
}
