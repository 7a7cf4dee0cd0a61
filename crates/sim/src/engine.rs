//! The cycle-based simulation engine.
//!
//! [`Tape::compile`] validates and levelizes a netlist once and flattens
//! its combinational cells, in eval order, into a tape of fixed-size
//! entries. Each entry is an 8-bit truth table, three input slots, an
//! output slot, the cell id and its switching slot. A [`Simulator`] runs
//! that tape every cycle without looking at the netlist or branching on
//! the gate kind.

use crate::activity::{ActivityTrace, CycleActivity, ToggleEvent};
use emtrust_netlist::cell::CellKind;
use emtrust_netlist::graph::{CellId, NetId, NetSource, Netlist};
use emtrust_netlist::level::{levelize, Levels};
use emtrust_netlist::NetlistError;
use std::borrow::Cow;
use std::sync::OnceLock;

/// The output of `kind` for every input pattern `a | b << 1 | c << 2`,
/// one bit per pattern, where `[a, b, c]` are the cell's inputs in pin
/// order. One-input kinds ignore `b` and `c`, two-input kinds ignore
/// `c`. `None` for the flip-flop and for any kind the tape does not know.
fn truth_table(kind: CellKind) -> Option<u8> {
    match kind {
        CellKind::Buf | CellKind::PadDriver => Some(0xAA),
        CellKind::Inv => Some(0x55),
        CellKind::And2 => Some(0x88),
        CellKind::Nand2 => Some(0x77),
        CellKind::Or2 => Some(0xEE),
        CellKind::Nor2 => Some(0x11),
        CellKind::Xor2 => Some(0x66),
        CellKind::Xnor2 => Some(0x99),
        // [d0, d1, sel]: sel = 0 passes d0 (patterns 1, 3), sel = 1
        // passes d1 (patterns 6, 7).
        CellKind::Mux2 => Some(0xCA),
        _ => None,
    }
}

/// One combinational cell on the tape.
#[derive(Debug, Clone, Copy)]
struct Op {
    /// Input net indices `[a, b, c]`; unused slots read the const-0 net.
    ins: [u32; 3],
    /// Output net index.
    out: u32,
    /// The cell, for its toggle events.
    cell: CellId,
    /// Switching slot of the cell's toggles: levelization depth + 1.
    level: u32,
    /// See [`truth_table`].
    table: u8,
}

/// A flip-flop: its cell and its `d` and `q` net indices.
#[derive(Debug, Clone, Copy)]
struct Flop {
    cell: CellId,
    d: u32,
    q: u32,
}

/// A netlist compiled for simulation: validated, levelized and flattened
/// into one tape entry per combinational cell, in eval order.
///
/// Compiling costs a few milliseconds on the full test chip, so owners
/// that spawn many simulators over one netlist keep the tape in a
/// [`TapeCache`].
#[derive(Debug, Clone)]
pub struct Tape {
    ops: Vec<Op>,
    flops: Vec<Flop>,
    levels: Levels,
    net_count: usize,
    cell_count: usize,
    const1: usize,
}

impl Tape {
    /// Compiles `netlist`.
    ///
    /// # Errors
    ///
    /// - any structural error from [`Netlist::validate`],
    /// - [`NetlistError::CombinationalCycle`] from levelization,
    /// - [`NetlistError::BadTruthTable`] for a cell kind the tape cannot
    ///   encode,
    /// - [`NetlistError::ArityMismatch`] for a cell with the wrong number
    ///   of inputs.
    pub fn compile(netlist: &Netlist) -> Result<Self, NetlistError> {
        netlist.validate()?;
        let levels = levelize(netlist)?;
        let zero = netlist.const0().index() as u32;
        let ops = levels
            .eval_order()
            .iter()
            .map(|&cell_id| {
                let cell = netlist.cell(cell_id);
                let kind = cell.kind();
                let table = truth_table(kind).ok_or(NetlistError::BadTruthTable {
                    what: "cell kind has no simulation truth table",
                })?;
                let inputs = cell.inputs();
                if inputs.len() != kind.arity() {
                    return Err(NetlistError::ArityMismatch {
                        kind,
                        expected: kind.arity(),
                        actual: inputs.len(),
                    });
                }
                let mut ins = [zero; 3];
                for (slot, net) in ins.iter_mut().zip(inputs) {
                    *slot = net.index() as u32;
                }
                Ok(Op {
                    ins,
                    out: cell.output().index() as u32,
                    cell: cell_id,
                    level: levels.level_of(cell_id) + 1,
                    table,
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        let flops = netlist
            .cells()
            .filter(|(_, c)| c.kind().is_sequential())
            .map(|(cell, c)| Flop {
                cell,
                d: c.inputs()[0].index() as u32,
                q: c.output().index() as u32,
            })
            .collect();
        Ok(Self {
            ops,
            flops,
            levels,
            net_count: netlist.net_count(),
            cell_count: netlist.cell_count(),
            const1: netlist.const1().index(),
        })
    }

    /// The levelization the tape was compiled from.
    pub fn levels(&self) -> &Levels {
        &self.levels
    }

    /// Nets at power-up: all 0 but the const-1 net.
    fn initial_values(&self) -> Vec<bool> {
        let mut values = vec![false; self.net_count];
        values[self.const1] = true;
        values
    }

    /// A toggle buffer with one slot per flip-flop and per tape entry, so
    /// a whole cycle's toggles always fit. A cycle overwrites each slot
    /// before reading it; the initial events only need a valid cell.
    fn event_slots(&self) -> Vec<ToggleEvent> {
        let flops = self.flops.iter().map(|f| ToggleEvent {
            cell: f.cell,
            level: 0,
            rising: false,
        });
        let ops = self.ops.iter().map(|op| ToggleEvent {
            cell: op.cell,
            level: op.level,
            rising: false,
        });
        flops.chain(ops).collect()
    }
}

/// A netlist's tape, compiled on first use and shared by every simulator
/// spawned after. A compile error is kept and returned on every call.
#[derive(Debug, Default)]
pub struct TapeCache(OnceLock<Result<Tape, NetlistError>>);

impl TapeCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// A simulator over `netlist` on the cached tape, compiling it on the
    /// first call.
    ///
    /// # Errors
    ///
    /// Any error from [`Tape::compile`].
    ///
    /// # Panics
    ///
    /// Panics if the cache was filled from a netlist with a different
    /// number of nets or cells (see [`Simulator::with_tape`]).
    pub fn simulator<'a>(&'a self, netlist: &'a Netlist) -> Result<Simulator<'a>, NetlistError> {
        let tape = self
            .0
            .get_or_init(|| Tape::compile(netlist))
            .as_ref()
            .map_err(Clone::clone)?;
        Ok(Simulator::with_tape(netlist, tape))
    }
}

/// Runs the tape once over `values`. With `RECORD`, each entry's event
/// is written to `events[len]` unconditionally and `len` advances only
/// when the output changed; returns the final `len`.
#[inline]
fn run_ops<const RECORD: bool>(
    ops: &[Op],
    values: &mut [bool],
    events: &mut [ToggleEvent],
    mut len: usize,
) -> usize {
    for op in ops {
        let [a, b, c] = op.ins;
        let pattern = usize::from(values[a as usize])
            | usize::from(values[b as usize]) << 1
            | usize::from(values[c as usize]) << 2;
        let new = op.table >> pattern & 1 != 0;
        let out = &mut values[op.out as usize];
        let changed = *out != new;
        *out = new;
        if RECORD {
            events[len] = ToggleEvent {
                cell: op.cell,
                level: op.level,
                rising: new,
            };
            len += usize::from(changed);
        }
    }
    len
}

/// A two-phase, cycle-based simulator over a borrowed [`Netlist`].
///
/// Each [`Simulator::step`] models one rising clock edge followed by
/// combinational settling:
///
/// 1. all flip-flops capture the `d` value settled at the end of the
///    previous cycle,
/// 2. the combinational cells evaluate once in levelized order.
///
/// Primary inputs are set with [`Simulator::set_input`] /
/// [`Simulator::set_bus`] and take effect in the combinational phase of
/// the next `step`.
#[derive(Debug)]
pub struct Simulator<'a> {
    netlist: &'a Netlist,
    tape: Cow<'a, Tape>,
    values: Vec<bool>,
    staged: Vec<bool>,
    /// Reusable per-cycle toggle buffer (see [`Tape::event_slots`]);
    /// allocated when the first recording starts.
    events: Vec<ToggleEvent>,
    recording: Option<ActivityTrace>,
    cycle: u64,
}

impl<'a> Simulator<'a> {
    /// Creates a simulator with a tape of its own; all nets start at
    /// logic 0 (constants excepted).
    ///
    /// # Errors
    ///
    /// Propagates any error from [`Tape::compile`].
    pub fn new(netlist: &'a Netlist) -> Result<Self, NetlistError> {
        let tape = Tape::compile(netlist)?;
        Ok(Self::build(netlist, Cow::Owned(tape)))
    }

    /// Creates a simulator that borrows a tape compiled from `netlist`.
    ///
    /// # Panics
    ///
    /// Panics if `tape` was compiled from a netlist with a different
    /// number of nets or cells.
    pub fn with_tape(netlist: &'a Netlist, tape: &'a Tape) -> Self {
        assert!(
            tape.net_count == netlist.net_count() && tape.cell_count == netlist.cell_count(),
            "tape was compiled from another netlist"
        );
        Self::build(netlist, Cow::Borrowed(tape))
    }

    fn build(netlist: &'a Netlist, tape: Cow<'a, Tape>) -> Self {
        Self {
            netlist,
            values: tape.initial_values(),
            staged: vec![false; tape.flops.len()],
            events: Vec::new(),
            tape,
            recording: None,
            cycle: 0,
        }
    }

    /// The netlist under simulation.
    pub fn netlist(&self) -> &Netlist {
        self.netlist
    }

    /// The levelization used for evaluation order and switching times.
    pub fn levels(&self) -> &Levels {
        self.tape.levels()
    }

    /// Number of clock edges applied so far.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Current logic value of `net`.
    ///
    /// # Panics
    ///
    /// Panics if `net` is out of range.
    pub fn value(&self, net: NetId) -> bool {
        self.values[net.index()]
    }

    /// Sets a primary-input net to `value` (effective next `step`).
    ///
    /// # Panics
    ///
    /// Panics if `net` is not a primary input.
    pub fn set_input(&mut self, net: NetId, value: bool) {
        assert!(
            matches!(self.netlist.net_source(net), NetSource::Input),
            "set_input on a non-input net"
        );
        self.values[net.index()] = value;
    }

    /// Sets an LSB-first bus of primary inputs from the low bits of `word`.
    ///
    /// # Panics
    ///
    /// Panics if any net is not a primary input or the bus is wider than
    /// 128 bits.
    pub fn set_bus(&mut self, nets: &[NetId], word: u128) {
        assert!(nets.len() <= 128, "bus wider than 128 bits");
        for (i, &n) in nets.iter().enumerate() {
            self.set_input(n, word >> i & 1 != 0);
        }
    }

    /// Reads an LSB-first bus into the low bits of a `u128`.
    ///
    /// # Panics
    ///
    /// Panics if the bus is wider than 128 bits.
    pub fn bus(&self, nets: &[NetId]) -> u128 {
        assert!(nets.len() <= 128, "bus wider than 128 bits");
        nets.iter()
            .enumerate()
            .fold(0u128, |acc, (i, &n)| acc | (u128::from(self.value(n)) << i))
    }

    /// Starts recording switching activity into a fresh trace.
    pub fn start_recording(&mut self) {
        if self.events.is_empty() {
            self.events = self.tape.event_slots();
        }
        self.recording = Some(ActivityTrace::new());
    }

    /// Stops recording and returns the captured trace (empty if recording
    /// was never started).
    pub fn take_recording(&mut self) -> ActivityTrace {
        self.recording.take().unwrap_or_default()
    }

    /// Whether a recording is in progress.
    pub fn is_recording(&self) -> bool {
        self.recording.is_some()
    }

    /// Settles the combinational logic with the current inputs *without* a
    /// clock edge and without recording activity. Useful to establish a
    /// consistent pre-clock state after setting initial inputs.
    pub fn settle(&mut self) {
        run_ops::<false>(&self.tape.ops, &mut self.values, &mut [], 0);
    }

    /// Applies one rising clock edge, then settles combinational logic.
    /// Records toggles if a recording is in progress.
    pub fn step(&mut self) {
        if self.recording.is_some() {
            self.clock_edge::<true>();
        } else {
            self.clock_edge::<false>();
        }
        self.cycle += 1;
    }

    fn clock_edge<const RECORD: bool>(&mut self) {
        let Self {
            tape,
            values,
            staged,
            events,
            recording,
            cycle,
            ..
        } = self;
        // Phase 1: every flop captures d before any q moves.
        for (s, f) in staged.iter_mut().zip(&tape.flops) {
            *s = values[f.d as usize];
        }
        // Phase 2: update q, recording level-0 toggles.
        let mut len = 0;
        for (f, &new) in tape.flops.iter().zip(staged.iter()) {
            let q = &mut values[f.q as usize];
            let changed = *q != new;
            *q = new;
            if RECORD {
                events[len] = ToggleEvent {
                    cell: f.cell,
                    level: 0,
                    rising: new,
                };
                len += usize::from(changed);
            }
        }
        // Phase 3: combinational settle in level order.
        let len = run_ops::<RECORD>(&tape.ops, values, events, len);
        if RECORD {
            if let Some(trace) = recording {
                trace.push_cycle(CycleActivity::from_events(*cycle, events[..len].to_vec()));
            }
        }
    }

    /// Runs `n` clock cycles.
    pub fn run(&mut self, n: usize) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Resets all state: nets to 0, cycle counter to 0. Any in-progress
    /// recording is discarded.
    pub fn reset(&mut self) {
        self.values.fill(false);
        self.values[self.tape.const1] = true;
        self.staged.fill(false);
        self.cycle = 0;
        self.recording = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::Oracle;
    use emtrust_netlist::cell::ALL_KINDS;
    use emtrust_netlist::graph::Netlist;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn truth_tables_match_cell_semantics() {
        for kind in ALL_KINDS {
            let Some(table) = truth_table(kind) else {
                assert!(kind.is_sequential(), "{kind:?} has no truth table");
                continue;
            };
            for pattern in 0..8u8 {
                let ins: Vec<bool> = (0..kind.arity()).map(|i| pattern >> i & 1 != 0).collect();
                assert_eq!(
                    table >> pattern & 1 != 0,
                    kind.eval(&ins),
                    "{kind:?} pattern {pattern:03b}"
                );
            }
        }
    }

    /// A random netlist that uses every combinational kind: a few primary
    /// inputs, flip-flops whose `d` pins feed back from anywhere (other
    /// flops included), and gates over any earlier net or constant.
    fn random_netlist(seed: u64) -> (Netlist, Vec<NetId>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut n = Netlist::new("random");
        let inputs: Vec<NetId> = (0..rng.gen_range(1..6usize))
            .map(|i| n.input(format!("in{i}")))
            .collect();
        let mut nets = inputs.clone();
        nets.extend([n.const0(), n.const1()]);
        let mut deferred = Vec::new();
        for _ in 0..rng.gen_range(1..8usize) {
            let (q, d) = n.dff_deferred();
            nets.push(q);
            deferred.push(d);
        }
        let kinds: Vec<CellKind> = ALL_KINDS
            .into_iter()
            .filter(|k| !k.is_sequential())
            .collect();
        for i in 0..rng.gen_range(kinds.len()..80) {
            // Every kind once, then random kinds.
            let kind = kinds
                .get(i)
                .copied()
                .unwrap_or_else(|| kinds[rng.gen_range(0..kinds.len())]);
            let ins: Vec<NetId> = (0..kind.arity())
                .map(|_| nets[rng.gen_range(0..nets.len())])
                .collect();
            let out = n.gate(kind, &ins);
            nets.push(out);
            if rng.gen_range(0..8u32) == 0 {
                nets.push(n.dff(out));
            }
        }
        for d in deferred {
            let src = nets[rng.gen_range(0..nets.len())];
            n.connect_dff_d(d, src);
        }
        (n, inputs)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        #[test]
        fn tape_is_bit_identical_to_the_scalar_oracle(
            seed in 0u64..u64::MAX,
            cycles in 1usize..32,
            settle_first in 0u8..2,
        ) {
            let (n, inputs) = random_netlist(seed);
            let mut sim = Simulator::new(&n).unwrap();
            let mut oracle = Oracle::new(&n).unwrap();
            if settle_first == 1 {
                sim.settle();
                oracle.settle();
            }
            let mut stimulus = StdRng::seed_from_u64(!seed);
            // An unrecorded prefix, then a recorded stretch.
            for cycle in 0..cycles {
                if cycle == cycles / 2 {
                    sim.start_recording();
                    oracle.start_recording();
                }
                for &net in &inputs {
                    let v: bool = stimulus.gen();
                    sim.set_input(net, v);
                    oracle.set_input(net, v);
                }
                sim.step();
                oracle.step();
                prop_assert_eq!(&sim.values[..], oracle.values(), "cycle {}", cycle);
            }
            prop_assert_eq!(sim.take_recording(), oracle.take_recording());
        }
    }

    #[test]
    fn simulators_sharing_one_tape_match_one_with_its_own() {
        let (n, inputs) = random_netlist(42);
        let cache = TapeCache::new();
        let mut own = Simulator::new(&n).unwrap();
        let mut shared = [cache.simulator(&n).unwrap(), cache.simulator(&n).unwrap()];
        let [Cow::Borrowed(a), Cow::Borrowed(b)] = [&shared[0].tape, &shared[1].tape] else {
            panic!("cached simulators must borrow the tape");
        };
        assert!(std::ptr::eq(*a, *b), "one compile serves both");
        own.start_recording();
        for sim in &mut shared {
            sim.start_recording();
        }
        for cycle in 0..16u32 {
            for (i, &net) in inputs.iter().enumerate() {
                let v = (cycle >> (i % 4)) & 1 != 0;
                own.set_input(net, v);
                for sim in &mut shared {
                    sim.set_input(net, v);
                }
            }
            own.step();
            for sim in &mut shared {
                sim.step();
            }
        }
        let expect = own.take_recording();
        assert!(expect.total_toggles() > 0);
        for sim in &mut shared {
            assert_eq!(sim.take_recording(), expect);
        }
    }

    #[test]
    #[should_panic(expected = "another netlist")]
    fn a_tape_from_another_netlist_is_refused() {
        let (a, _) = random_netlist(1);
        let mut b = Netlist::new("other");
        let x = b.input("x");
        b.mark_output("y", x);
        let tape = Tape::compile(&a).unwrap();
        let _ = Simulator::with_tape(&b, &tape);
    }

    fn counter2() -> (Netlist, Vec<NetId>) {
        // 2-bit binary counter: q0' = !q0; q1' = q1 ^ q0.
        let mut n = Netlist::new("counter2");
        let (q0, d0) = n.dff_deferred();
        let (q1, d1) = n.dff_deferred();
        let nq0 = n.not(q0);
        let x = n.xor2(q1, q0);
        n.connect_dff_d(d0, nq0);
        n.connect_dff_d(d1, x);
        n.mark_output("q0", q0);
        n.mark_output("q1", q1);
        (n, vec![q0, q1])
    }

    #[test]
    fn counter_counts() {
        let (n, bus) = counter2();
        let mut sim = Simulator::new(&n).unwrap();
        sim.settle();
        let mut seen = Vec::new();
        for _ in 0..5 {
            sim.step();
            seen.push(sim.bus(&bus));
        }
        assert_eq!(seen, [1, 2, 3, 0, 1]);
    }

    #[test]
    fn combinational_logic_follows_inputs() {
        let mut n = Netlist::new("xor");
        let a = n.input("a");
        let b = n.input("b");
        let x = n.xor2(a, b);
        n.mark_output("x", x);
        let mut sim = Simulator::new(&n).unwrap();
        sim.set_input(a, true);
        sim.set_input(b, false);
        sim.step();
        assert!(sim.value(x));
        sim.set_input(b, true);
        sim.step();
        assert!(!sim.value(x));
    }

    #[test]
    fn settle_propagates_without_clock() {
        let mut n = Netlist::new("inv");
        let a = n.input("a");
        let y = n.not(a);
        n.mark_output("y", y);
        let mut sim = Simulator::new(&n).unwrap();
        assert!(!sim.value(y));
        sim.settle();
        assert!(sim.value(y), "inverter of 0 must settle to 1");
        assert_eq!(sim.cycle(), 0, "settle must not advance the clock");
    }

    #[test]
    fn recording_captures_toggles_with_levels() {
        let (n, _) = counter2();
        let mut sim = Simulator::new(&n).unwrap();
        sim.settle();
        sim.start_recording();
        sim.step(); // 00 -> 01: q0 rises, nq0 falls, xor rises.
        let trace = sim.take_recording();
        assert_eq!(trace.cycle_count(), 1);
        let events = trace.cycles()[0].events();
        // q0 toggles (level 0), inverter (level 1), xor (level 1).
        assert_eq!(events.len(), 3);
        assert!(events.iter().any(|e| e.level == 0 && e.rising));
        assert_eq!(events.iter().filter(|e| e.level == 1).count(), 2);
    }

    #[test]
    fn no_recording_means_empty_trace() {
        let (n, _) = counter2();
        let mut sim = Simulator::new(&n).unwrap();
        sim.step();
        let trace = sim.take_recording();
        assert_eq!(trace.cycle_count(), 0);
        assert!(!sim.is_recording());
    }

    #[test]
    fn reset_restores_initial_state() {
        let (n, bus) = counter2();
        let mut sim = Simulator::new(&n).unwrap();
        sim.settle();
        sim.run(3);
        assert_ne!(sim.bus(&bus), 0);
        sim.reset();
        assert_eq!(sim.bus(&bus), 0);
        assert_eq!(sim.cycle(), 0);
    }

    #[test]
    fn bus_round_trip() {
        let mut n = Netlist::new("pass");
        let ins = n.input_bus("a", 8);
        let outs: Vec<NetId> = ins.clone();
        n.mark_output_bus("y", &outs);
        let mut sim = Simulator::new(&n).unwrap();
        sim.set_bus(&ins, 0xA5);
        assert_eq!(sim.bus(&ins), 0xA5);
    }

    #[test]
    fn constants_hold_their_values() {
        let mut n = Netlist::new("c");
        let c1 = n.const1();
        let c0 = n.const0();
        let x = n.and2(c1, c1);
        n.mark_output("x", x);
        let mut sim = Simulator::new(&n).unwrap();
        sim.settle();
        assert!(sim.value(c1));
        assert!(!sim.value(c0));
        assert!(sim.value(x));
        sim.run(2);
        assert!(sim.value(c1));
    }

    #[test]
    #[should_panic(expected = "non-input")]
    fn set_input_rejects_internal_nets() {
        let mut n = Netlist::new("t");
        let a = n.input("a");
        let y = n.not(a);
        n.mark_output("y", y);
        let mut sim = Simulator::new(&n).unwrap();
        sim.set_input(y, true);
    }

    #[test]
    fn simulator_rejects_cyclic_netlists() {
        let mut n = Netlist::new("loop");
        let a = n.input("a");
        let x1 = n.not(a);
        let x2 = n.not(x1);
        let first = match n.net_source(x1) {
            NetSource::Cell(c) => *c,
            _ => unreachable!(),
        };
        n.rewire_input(first, 0, x2).unwrap();
        assert!(Simulator::new(&n).is_err());
        let cache = TapeCache::new();
        for _ in 0..2 {
            assert!(matches!(
                cache.simulator(&n),
                Err(NetlistError::CombinationalCycle { .. })
            ));
        }
    }

    #[test]
    fn cycle_counter_advances() {
        let (n, _) = counter2();
        let mut sim = Simulator::new(&n).unwrap();
        sim.run(7);
        assert_eq!(sim.cycle(), 7);
    }
}
