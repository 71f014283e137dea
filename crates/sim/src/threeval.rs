//! Three-valued (0/1/X) full-netlist simulation.

use dft_netlist::{GateId, LevelizeError, Netlist};

use crate::Logic;

/// A levelized three-valued simulator.
///
/// Used wherever unknowns matter: power-on state reasoning (the paper's
/// *predictability* requirement, §III-B), X-propagation checks during
/// test generation, and verification that a CLEAR/PRESET test point
/// really puts the machine into a known state.
///
/// ```
/// use dft_netlist::{Netlist, GateKind};
/// use dft_sim::{Logic, ThreeValueSim};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut n = Netlist::new("t");
/// let a = n.add_input("a");
/// let g = n.add_gate(GateKind::And, &[a, a])?;
/// n.mark_output(g, "y")?;
/// let sim = ThreeValueSim::new(&n)?;
/// let vals = sim.eval(&[Logic::X], &[]);
/// assert_eq!(vals[g.index()], Logic::X);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ThreeValueSim<'n> {
    netlist: &'n Netlist,
    /// The levelized order, borrowed from the netlist's topology.
    order: &'n [GateId],
    storage: Vec<GateId>,
}

impl<'n> ThreeValueSim<'n> {
    /// Compiles a three-valued simulator for `netlist`.
    ///
    /// # Errors
    ///
    /// Returns [`LevelizeError`] on combinational cycles.
    pub fn new(netlist: &'n Netlist) -> Result<Self, LevelizeError> {
        Ok(ThreeValueSim {
            netlist,
            order: netlist.levelize()?.order(),
            storage: netlist.storage_elements(),
        })
    }

    /// The storage elements, in state-vector order.
    #[must_use]
    pub fn storage(&self) -> &[GateId] {
        &self.storage
    }

    /// Evaluates one frame: `pis` in primary-input order, `state` in
    /// [`ThreeValueSim::storage`] order (empty slice means all-X).
    /// Returns per-gate values indexed by [`GateId::index`].
    ///
    /// # Panics
    ///
    /// Panics if `pis` or a non-empty `state` have the wrong length.
    #[must_use]
    pub fn eval(&self, pis: &[Logic], state: &[Logic]) -> Vec<Logic> {
        assert_eq!(pis.len(), self.netlist.primary_inputs().len());
        let mut vals = vec![Logic::X; self.netlist.gate_count()];
        for (i, &pi) in self.netlist.primary_inputs().iter().enumerate() {
            vals[pi.index()] = pis[i];
        }
        for (id, gate) in self.netlist.iter() {
            match gate.kind() {
                dft_netlist::GateKind::Const0 => vals[id.index()] = Logic::Zero,
                dft_netlist::GateKind::Const1 => vals[id.index()] = Logic::One,
                _ => {}
            }
        }
        if !state.is_empty() {
            assert_eq!(state.len(), self.storage.len());
            for (i, &s) in self.storage.iter().enumerate() {
                vals[s.index()] = state[i];
            }
        }
        self.eval_into(&mut vals);
        vals
    }

    /// Evaluates the combinational frame in place over pre-seeded source
    /// values. Storage slots keep their present-state value.
    pub fn eval_into(&self, vals: &mut [Logic]) {
        let mut buf: Vec<Logic> = Vec::with_capacity(8);
        for &id in self.order {
            let gate = self.netlist.gate(id);
            if gate.kind().is_source() {
                continue;
            }
            buf.clear();
            buf.extend(gate.inputs().iter().map(|&s| vals[s.index()]));
            vals[id.index()] = Logic::eval_gate(gate.kind(), &buf);
        }
    }

    /// Computes the next state implied by the frame values returned from
    /// [`ThreeValueSim::eval`].
    #[must_use]
    pub fn next_state(&self, vals: &[Logic]) -> Vec<Logic> {
        self.storage
            .iter()
            .map(|&s| vals[self.netlist.gate(s).inputs()[0].index()])
            .collect()
    }

    /// Extracts the primary-output row from frame values.
    #[must_use]
    pub fn outputs(&self, vals: &[Logic]) -> Vec<Logic> {
        self.netlist
            .primary_outputs()
            .iter()
            .map(|&(g, _)| vals[g.index()])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dft_netlist::circuits::{binary_counter, full_adder};
    use dft_netlist::GateKind;

    #[test]
    fn known_inputs_give_known_outputs() {
        let fa = full_adder();
        let sim = ThreeValueSim::new(&fa).unwrap();
        let vals = sim.eval(&[Logic::One, Logic::One, Logic::Zero], &[]);
        let outs = sim.outputs(&vals);
        assert_eq!(outs, vec![Logic::Zero, Logic::One]);
    }

    #[test]
    fn x_state_propagates_until_controlled() {
        // Counter with enable=0: next state = q XOR 0 = q, so X stays X.
        let n = binary_counter(2);
        let sim = ThreeValueSim::new(&n).unwrap();
        let vals = sim.eval(&[Logic::Zero], &[Logic::X, Logic::X]);
        assert_eq!(sim.next_state(&vals), vec![Logic::X, Logic::X]);
        // With enable=1, bit0 toggles X->X (XOR with X is X) — still X:
        // counters are unpredictable without a reset, which is the paper's
        // point about CLEAR/PRESET test points.
        let vals = sim.eval(&[Logic::One], &[Logic::X, Logic::X]);
        assert_eq!(sim.next_state(&vals)[0], Logic::X);
    }

    #[test]
    fn controlling_value_overrides_x_state() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let d = n.add_dff(a).unwrap();
        let y = n.add_gate(GateKind::And, &[a, d]).unwrap();
        n.mark_output(y, "y").unwrap();
        let sim = ThreeValueSim::new(&n).unwrap();
        let vals = sim.eval(&[Logic::Zero], &[Logic::X]);
        assert_eq!(sim.outputs(&vals), vec![Logic::Zero]);
    }

    #[test]
    fn constants_evaluate_even_though_they_are_sources() {
        let mut n = Netlist::new("t");
        let one = n.add_const(true);
        let zero = n.add_const(false);
        let y = n.add_gate(GateKind::And, &[one, one]).unwrap();
        let z = n.add_gate(GateKind::Or, &[zero, zero]).unwrap();
        n.mark_output(y, "y").unwrap();
        n.mark_output(z, "z").unwrap();
        let sim = ThreeValueSim::new(&n).unwrap();
        let vals = sim.eval(&[], &[]);
        assert_eq!(sim.outputs(&vals), vec![Logic::One, Logic::Zero]);
    }

    use dft_netlist::Netlist;
}
