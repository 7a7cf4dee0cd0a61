//! Functional equivalence between the behavioural AES-128 reference and
//! the gate-level netlist, with and without Trojans — the property that
//! makes every EM trace in this repository the trace of a *real* AES.

use emtrust_aes::reference::Aes128;
use emtrust_trojan::{ProtectedChip, TrojanKind};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    #[test]
    fn gate_level_aes_matches_fips_reference(
        key in proptest::array::uniform16(0u8..=255),
        pt in proptest::array::uniform16(0u8..=255),
    ) {
        let chip = ProtectedChip::golden();
        let mut sim = chip.simulator().expect("simulator");
        let hw = chip.encrypt(&mut sim, key, pt);
        let sw = Aes128::new(key).encrypt_block(pt);
        prop_assert_eq!(hw, sw);
    }
}

#[test]
fn every_trigger_combination_preserves_functionality() {
    let chip = ProtectedChip::with_all_trojans();
    let mut sim = chip.simulator().expect("simulator");
    let key = *b"trigger-combo-k!";
    let pt = *b"trigger-combo-pt";
    let expect = Aes128::new(key).encrypt_block(pt);
    let kinds = [
        TrojanKind::T1AmLeaker,
        TrojanKind::T2LeakageLeaker,
        TrojanKind::T3CdmaLeaker,
        TrojanKind::T4PowerDegrader,
    ];
    for mask in 0u8..16 {
        for (i, &kind) in kinds.iter().enumerate() {
            chip.arm(&mut sim, kind, mask >> i & 1 != 0)
                .expect("the chip carries every Trojan");
        }
        assert_eq!(
            chip.encrypt(&mut sim, key, pt),
            expect,
            "trigger mask {mask:#06b} corrupted the ciphertext"
        );
    }
}

#[test]
fn repeated_encryptions_are_deterministic() {
    let chip = ProtectedChip::with_all_trojans();
    let mut sim = chip.simulator().expect("simulator");
    let key = *b"determinism key!";
    let a = chip.encrypt(&mut sim, key, [0x11; 16]);
    let b = chip.encrypt(&mut sim, key, [0x22; 16]);
    let c = chip.encrypt(&mut sim, key, [0x11; 16]);
    assert_eq!(a, c);
    assert_ne!(a, b);
}
