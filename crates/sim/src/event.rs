//! Selective-trace event-driven simulation.

use dft_netlist::{GateId, LevelizeError, Netlist, Readers};

use crate::Logic;

/// An event-driven simulator: only gates whose inputs changed are
/// re-evaluated.
///
/// For low-activity stimulus (a tester toggling one pin, a degating line
/// being asserted) this visits a small fraction of the network. The
/// `events` counter exposes the activity, which the partitioning
/// experiment (E16) uses to show how degating confines activity to one
/// module.
///
/// ```
/// use dft_netlist::circuits::c17;
/// use dft_sim::{EventSim, Logic};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let c17 = c17();
/// let mut sim = EventSim::new(&c17)?;
/// sim.set_inputs(&[Logic::Zero; 5]);
/// sim.settle();
/// let before = sim.events();
/// sim.set_input(0, Logic::One); // toggle one pin
/// sim.settle();
/// assert!(sim.events() - before < 7); // far fewer than a full pass
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct EventSim<'n> {
    netlist: &'n Netlist,
    /// Reader lists and levels, borrowed from the netlist's topology.
    readers: &'n Readers,
    level: &'n [u32],
    values: Vec<Logic>,
    dirty: Vec<bool>,
    /// Gates pending evaluation, bucketed by level.
    queue: Vec<Vec<GateId>>,
    events: u64,
}

impl<'n> EventSim<'n> {
    /// Compiles an event simulator; all values start at X.
    ///
    /// # Errors
    ///
    /// Returns [`LevelizeError`] on combinational cycles.
    pub fn new(netlist: &'n Netlist) -> Result<Self, LevelizeError> {
        let lv = netlist.levelize()?;
        let depth = lv.depth() as usize;
        let mut sim = EventSim {
            netlist,
            readers: netlist.topology().readers(),
            level: lv.levels(),
            values: vec![Logic::X; netlist.gate_count()],
            dirty: vec![false; netlist.gate_count()],
            queue: vec![Vec::new(); depth + 2],
            events: 0,
        };
        // Constants settle immediately (they have no inputs to trigger
        // an event, so seed them here).
        for (id, gate) in netlist.iter() {
            match gate.kind() {
                dft_netlist::GateKind::Const0 => sim.drive(id, Logic::Zero),
                dft_netlist::GateKind::Const1 => sim.drive(id, Logic::One),
                _ => {}
            }
        }
        sim.settle();
        Ok(sim)
    }

    /// Current value of a gate's output net.
    #[must_use]
    pub fn value(&self, id: GateId) -> Logic {
        self.values[id.index()]
    }

    /// Total gate evaluations performed so far (the activity metric).
    #[must_use]
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Drives primary input `index` (position in
    /// [`Netlist::primary_inputs`]) to `value`, scheduling its fanout.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn set_input(&mut self, index: usize, value: Logic) {
        let id = self.netlist.primary_inputs()[index];
        self.drive(id, value);
    }

    /// Drives all primary inputs.
    ///
    /// # Panics
    ///
    /// Panics if `values` has the wrong length.
    pub fn set_inputs(&mut self, values: &[Logic]) {
        assert_eq!(values.len(), self.netlist.primary_inputs().len());
        for (i, &v) in values.iter().enumerate() {
            self.set_input(i, v);
        }
    }

    /// Forces a storage element's output (present state), scheduling its
    /// fanout. The element is identified by its gate id.
    pub fn set_state(&mut self, dff: GateId, value: Logic) {
        self.drive(dff, value);
    }

    fn drive(&mut self, id: GateId, value: Logic) {
        if self.values[id.index()] == value {
            return;
        }
        self.values[id.index()] = value;
        self.schedule_fanout(id);
    }

    fn schedule_fanout(&mut self, id: GateId) {
        for &(reader, _pin) in &self.readers[id.index()] {
            if self.netlist.gate(reader).kind().is_source() {
                continue; // DFF data input: not evaluated until clocked
            }
            let ri = reader.index();
            if !self.dirty[ri] {
                self.dirty[ri] = true;
                self.queue[self.level[ri] as usize].push(reader);
            }
        }
    }

    /// Propagates all pending events until the network is quiescent.
    /// Returns the number of gate evaluations performed by this call.
    pub fn settle(&mut self) -> u64 {
        let start = self.events;
        let mut lvl = 0;
        while lvl < self.queue.len() {
            while let Some(id) = self.queue[lvl].pop() {
                self.dirty[id.index()] = false;
                let gate = self.netlist.gate(id);
                let mut buf: Vec<Logic> = Vec::with_capacity(gate.fanin());
                buf.extend(gate.inputs().iter().map(|&s| self.values[s.index()]));
                let new = Logic::eval_gate(gate.kind(), &buf);
                self.events += 1;
                if new != self.values[id.index()] {
                    self.values[id.index()] = new;
                    self.schedule_fanout(id);
                }
            }
            lvl += 1;
        }
        self.events - start
    }

    /// Clocks every storage element (state ← settled data-input value),
    /// then settles the resulting activity.
    pub fn clock(&mut self) {
        let updates: Vec<(GateId, Logic)> = self
            .netlist
            .storage_elements()
            .into_iter()
            .map(|dff| {
                let d = self.netlist.gate(dff).inputs()[0];
                (dff, self.values[d.index()])
            })
            .collect();
        for (dff, v) in updates {
            self.drive(dff, v);
        }
        self.settle();
    }

    /// The primary-output row under the current values.
    #[must_use]
    pub fn outputs(&self) -> Vec<Logic> {
        self.netlist
            .primary_outputs()
            .iter()
            .map(|&(g, _)| self.values[g.index()])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dft_netlist::circuits::{c17, full_adder, shift_register};
    use dft_sim_test_support::assert_agrees_with_compiled;

    mod dft_sim_test_support {
        use super::super::*;
        use crate::{CompiledSim, PatternSet};

        /// Event simulation and compiled simulation must agree on every
        /// output for every pattern.
        pub fn assert_agrees_with_compiled(netlist: &Netlist, patterns: &[Vec<bool>]) {
            let csim = CompiledSim::new(netlist).unwrap();
            let set = PatternSet::from_rows(netlist.primary_inputs().len(), patterns);
            let cresp = csim.run(&set);
            let mut esim = EventSim::new(netlist).unwrap();
            for (pi, pattern) in patterns.iter().enumerate() {
                let logic: Vec<Logic> = pattern.iter().map(|&b| Logic::from(b)).collect();
                esim.set_inputs(&logic);
                esim.settle();
                let eout = esim.outputs();
                for (o, &v) in eout.iter().enumerate() {
                    assert_eq!(
                        v.to_bool(),
                        Some(cresp.output_bit(o, pi)),
                        "output {o} pattern {pi}"
                    );
                }
            }
        }
    }

    #[test]
    fn agrees_with_compiled_on_c17() {
        let n = c17();
        let patterns: Vec<Vec<bool>> = (0..32u8)
            .map(|v| (0..5).map(|i| v >> i & 1 == 1).collect())
            .collect();
        assert_agrees_with_compiled(&n, &patterns);
    }

    #[test]
    fn agrees_with_compiled_on_full_adder() {
        let n = full_adder();
        let patterns: Vec<Vec<bool>> = (0..8u8)
            .map(|v| (0..3).map(|i| v >> i & 1 == 1).collect())
            .collect();
        assert_agrees_with_compiled(&n, &patterns);
    }

    #[test]
    fn single_pin_toggle_is_cheap() {
        let n = c17();
        let mut sim = EventSim::new(&n).unwrap();
        sim.set_inputs(&[Logic::Zero; 5]);
        let full = sim.settle();
        assert!(full <= 6, "first settle visits at most every gate");
        sim.set_input(4, Logic::One); // input "7" only feeds g19
        let delta = sim.settle();
        assert!(delta <= 2, "toggling one pin must stay local, got {delta}");
    }

    #[test]
    fn clock_shifts_state() {
        let n = shift_register(3);
        let mut sim = EventSim::new(&n).unwrap();
        for dff in n.storage_elements() {
            sim.set_state(dff, Logic::Zero);
        }
        sim.set_inputs(&[Logic::One]);
        sim.settle();
        sim.clock();
        let q: Vec<Logic> = n.storage_elements().iter().map(|&d| sim.value(d)).collect();
        assert_eq!(q, vec![Logic::One, Logic::Zero, Logic::Zero]);
    }

    #[test]
    fn no_change_no_events() {
        let n = c17();
        let mut sim = EventSim::new(&n).unwrap();
        sim.set_inputs(&[Logic::One; 5]);
        sim.settle();
        let before = sim.events();
        sim.set_inputs(&[Logic::One; 5]); // identical values
        sim.settle();
        assert_eq!(sim.events(), before);
    }
}
