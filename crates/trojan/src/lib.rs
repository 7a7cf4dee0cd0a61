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

//! # emtrust-trojan
//!
//! The hardware Trojan benchmarks of the DAC 2020 on-chip EM sensor paper
//! (§IV-A), as netlist generators plus an analog model:
//!
//! | Trojan | Paper behaviour | Our implementation |
//! |---|---|---|
//! | **T1** | Leaks the secret over an AM radio carrier at ≈750 kHz | Clock-division carrier, key shift register, AM-gated toggle-driver bank ([`digital::insert_t1_am_leaker`]) |
//! | **T2** | Leaks via leakage current from a shift register + two inverters | 256-bit circulating key shift register with a leakage-inverter pair; dynamic shifting plus a leakage hook for the power model ([`digital::insert_t2_leakage_leaker`]) |
//! | **T3** | Leaks one bit over many cycles through a CDMA channel (PRNG spreading) | 16-bit LFSR spreader XORed with a serialized key snippet ([`digital::insert_t3_cdma_leaker`]) |
//! | **T4** | Degrades performance by flipping extra registers | Trigger-enabled toggle-register bank ([`digital::insert_t4_power_degrader`]) |
//! | **A2** | Analog charge-pump Trojan (6 transistors) with a fast-flipping trigger | Behavioural current-injection model ([`a2::A2Trojan`]) |
//!
//! Each digital Trojan carries the paper's *explicit external trigger*
//! ("we design an extra triggering signal for each Trojan to activate the
//! payload in a more manageable way") and is sized to the paper's Table-I
//! relative overhead (≈5 %, ≈8.4 %, ≈0.76 %, ≈8.4 % of the AES core).
//!
//! [`chip::ProtectedChip`] assembles the fabricated die of paper Fig. 3:
//! one AES-128 core plus all four digital Trojans with individual trigger
//! control.

pub mod a2;
pub mod chip;
pub mod digital;

pub use a2::A2Trojan;
pub use chip::ProtectedChip;
pub use digital::{TrojanKind, TrojanPorts};

use std::fmt;

/// Errors produced when driving a chip's Trojans.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TrojanError {
    /// The chip does not carry the requested Trojan.
    NotCarried {
        /// The requested Trojan.
        kind: TrojanKind,
    },
}

impl fmt::Display for TrojanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrojanError::NotCarried { kind } => write!(f, "chip does not carry {kind}"),
        }
    }
}

impl std::error::Error for TrojanError {}
