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

//! # emtrust-sim
//!
//! Cycle-based logic simulation with switching-activity capture for the
//! `emtrust` reproduction of the DAC 2020 on-chip EM sensor paper.
//!
//! The EM side channel is driven by *which cells toggle, and when within
//! the clock cycle*. The simulator therefore does two things:
//!
//! 1. **Functional simulation** — two-phase, cycle-based: on each
//!    [`engine::Simulator::step`] the flip-flops capture their `d` inputs,
//!    then the combinational cloud settles in levelized order. Zero-delay
//!    semantics; glitches below the cycle resolution are not modelled
//!    (documented substitution — the detectors operate on aggregate charge
//!    per transition window, which single-transition-per-cycle preserves).
//! 2. **Activity capture** — every output toggle is recorded per cycle as
//!    an [`activity::ToggleEvent`]; the power model later converts each
//!    event into a current pulse at `t = cycle·T + level·τ_gate`.
//!
//! There is also a small [`vcd`] writer for waveform inspection.
//!
//! # The compiled tape
//!
//! [`engine::Tape::compile`] validates and levelizes a netlist once and
//! flattens its combinational cells, in eval order, into a flat tape. Each
//! entry holds an 8-bit truth table indexed by the input pattern
//! `a | b << 1 | c << 2` (`[a, b, c]` in pin order; `Buf`/`PadDriver` =
//! `0xAA`, `Inv` = `0x55`, `Mux2` = `0xCA`, and so on), three input net
//! slots (unused slots read the const-0 net), the output net, the
//! `CellId` and the cell's switching slot `level + 1`. A cycle runs the
//! tape without touching the netlist or branching on the gate kind. Its
//! toggles go into one reusable buffer with a slot per flip-flop and per
//! entry: each event is written unconditionally and the fill length
//! advances by `changed as usize`. The cycle's events are then copied
//! out at exact size.
//!
//! Compiling costs a few milliseconds on the full test chip. Owners that
//! spawn many simulators over one netlist (`AesHarness`,
//! `ProtectedChip`) keep a [`engine::TapeCache`]: the first simulator
//! compiles the tape and every later one borrows it.
//! [`engine::Simulator::new`] compiles a tape of its own.
//!
//! The per-cell netlist walk the tape replaced survives only as a test
//! oracle (`oracle.rs`, compiled under `cfg(test)`); property tests over
//! random netlists and a full-chip test hold the tape to it bit for bit.
//!
//! # Examples
//!
//! Simulate a toggle flip-flop for four cycles:
//!
//! ```
//! use emtrust_netlist::graph::Netlist;
//! use emtrust_sim::engine::Simulator;
//!
//! let mut n = Netlist::new("toggle");
//! let (q, d) = n.dff_deferred();
//! let nq = n.not(q);
//! n.connect_dff_d(d, nq);
//! n.mark_output("q", q);
//!
//! let mut sim = Simulator::new(&n)?;
//! sim.settle(); // propagate the initial state through the inverter
//! let mut values = Vec::new();
//! for _ in 0..4 {
//!     sim.step();
//!     values.push(sim.value(q));
//! }
//! assert_eq!(values, [true, false, true, false]);
//! # Ok::<(), emtrust_netlist::NetlistError>(())
//! ```

pub mod activity;
pub mod engine;
#[cfg(test)]
mod oracle;
pub mod vcd;

pub use activity::{ActivityTrace, CycleActivity, ToggleActivity, ToggleEvent};
pub use engine::{Simulator, Tape, TapeCache};
