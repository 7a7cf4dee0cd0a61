//! The scalar reference simulator: the per-cell netlist walk the tape
//! replaced, kept only as a test oracle.
//!
//! Each evaluation looks the cell up in the netlist, gathers its input
//! values through the cell's `Vec<NetId>` and calls [`CellKind::eval`].
//! That is slow, but it is the semantics the tape must reproduce bit for
//! bit: same flip-flop capture, same eval order, same toggle events.
//!
//! The file names its activity types through `super::`, so a test crate
//! that includes it with `#[path]` supplies them with a
//! `use emtrust_sim::{ActivityTrace, CycleActivity, ToggleEvent};` at
//! its root.
//!
//! [`CellKind::eval`]: emtrust_netlist::cell::CellKind::eval

#![allow(dead_code)]

use super::{ActivityTrace, CycleActivity, ToggleEvent};
use emtrust_netlist::graph::{CellId, NetId, Netlist};
use emtrust_netlist::level::{levelize, Levels};
use emtrust_netlist::NetlistError;

/// A two-phase, cycle-based simulator that walks the netlist cell by cell.
pub struct Oracle<'a> {
    netlist: &'a Netlist,
    levels: Levels,
    values: Vec<bool>,
    flops: Vec<(CellId, NetId, NetId)>,
    recording: Option<ActivityTrace>,
    cycle: u64,
}

impl<'a> Oracle<'a> {
    /// All nets start at logic 0, constants excepted.
    pub fn new(netlist: &'a Netlist) -> Result<Self, NetlistError> {
        netlist.validate()?;
        let levels = levelize(netlist)?;
        let mut values = vec![false; netlist.net_count()];
        values[netlist.const1().index()] = true;
        let flops = netlist
            .cells()
            .filter(|(_, c)| c.kind().is_sequential())
            .map(|(id, c)| (id, c.inputs()[0], c.output()))
            .collect();
        Ok(Self {
            netlist,
            levels,
            values,
            flops,
            recording: None,
            cycle: 0,
        })
    }

    /// Every net value, indexed by `NetId::index`.
    pub fn values(&self) -> &[bool] {
        &self.values
    }

    /// Current value of `net`.
    pub fn value(&self, net: NetId) -> bool {
        self.values[net.index()]
    }

    /// Drives a primary input.
    pub fn set_input(&mut self, net: NetId, value: bool) {
        self.values[net.index()] = value;
    }

    /// Drives an LSB-first bus from the low bits of `word`.
    pub fn set_bus(&mut self, nets: &[NetId], word: u128) {
        for (i, &n) in nets.iter().enumerate() {
            self.set_input(n, word >> i & 1 != 0);
        }
    }

    /// Reads an LSB-first bus.
    pub fn bus(&self, nets: &[NetId]) -> u128 {
        nets.iter()
            .enumerate()
            .fold(0u128, |acc, (i, &n)| acc | (u128::from(self.value(n)) << i))
    }

    /// Starts a fresh recording.
    pub fn start_recording(&mut self) {
        self.recording = Some(ActivityTrace::new());
    }

    /// Ends the recording and returns it.
    pub fn take_recording(&mut self) -> ActivityTrace {
        self.recording.take().unwrap_or_default()
    }

    /// Settles the combinational logic without a clock edge.
    pub fn settle(&mut self) {
        for &cell_id in self.levels.eval_order() {
            let out = self.netlist.cell(cell_id).output();
            self.values[out.index()] = self.eval_cell(cell_id);
        }
    }

    /// One clock edge, then combinational settling in level order.
    pub fn step(&mut self) {
        let staged: Vec<bool> = self
            .flops
            .iter()
            .map(|&(_, d, _)| self.values[d.index()])
            .collect();
        let mut activity = CycleActivity::new(self.cycle);
        for (&(cell, _, q), &new) in self.flops.iter().zip(&staged) {
            if self.values[q.index()] != new {
                self.values[q.index()] = new;
                activity.push(ToggleEvent {
                    cell,
                    level: 0,
                    rising: new,
                });
            }
        }
        for idx in 0..self.levels.eval_order().len() {
            let cell_id = self.levels.eval_order()[idx];
            let new = self.eval_cell(cell_id);
            let out = self.netlist.cell(cell_id).output();
            if self.values[out.index()] != new {
                self.values[out.index()] = new;
                activity.push(ToggleEvent {
                    cell: cell_id,
                    level: self.levels.level_of(cell_id) + 1,
                    rising: new,
                });
            }
        }
        if let Some(trace) = &mut self.recording {
            trace.push_cycle(activity);
        }
        self.cycle += 1;
    }

    fn eval_cell(&self, cell_id: CellId) -> bool {
        let cell = self.netlist.cell(cell_id);
        let ins: Vec<bool> = cell
            .inputs()
            .iter()
            .map(|n| self.values[n.index()])
            .collect();
        cell.kind().eval(&ins)
    }
}
