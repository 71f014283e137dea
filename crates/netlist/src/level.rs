//! Levelization (topological ordering) of the combinational frame.

use std::collections::VecDeque;
use std::error::Error;
use std::fmt;

use crate::{GateId, Netlist, Readers};

/// A combinational cycle was found during levelization.
///
/// Storage elements legally break feedback loops; a loop made only of
/// combinational gates is a modelling error (or an asynchronous circuit,
/// which this toolkit — like the paper's structured design rules — forbids).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LevelizeError {
    /// A gate on the offending cycle.
    pub on_cycle: GateId,
}

impl fmt::Display for LevelizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "combinational cycle through gate {}", self.on_cycle)
    }
}

impl Error for LevelizeError {}

/// The result of levelizing a netlist: an evaluation order for the
/// combinational frame plus per-gate logic depth.
///
/// Sources (primary inputs, constants and DFF *outputs*) sit at level 0;
/// every other gate sits one past its deepest input. Iterating
/// [`Levelization::order`] evaluates each gate after all of its drivers —
/// the backbone of every simulator in the workspace.
///
/// Each netlist revision is levelized once, inside its memoized
/// [`crate::Topology`]: [`Netlist::levelize`] borrows that levelization,
/// and [`Levelization::compute`] clones it.
///
/// ```
/// use dft_netlist::{Netlist, GateKind};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut n = Netlist::new("t");
/// let a = n.add_input("a");
/// let x = n.add_gate(GateKind::Not, &[a])?;
/// let y = n.add_gate(GateKind::And, &[a, x])?;
/// let lv = n.levelize()?;
/// assert_eq!(lv.level(a), 0);
/// assert_eq!(lv.level(x), 1);
/// assert_eq!(lv.level(y), 2);
/// assert_eq!(lv.depth(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Levelization {
    order: Vec<GateId>,
    level: Vec<u32>,
    depth: u32,
}

impl Levelization {
    /// The levelization of `netlist`'s combinational frame: a copy of
    /// the one its [`Netlist::topology`] memoizes (building that on
    /// first use).
    ///
    /// # Errors
    ///
    /// Returns [`LevelizeError`] if a cycle of combinational gates exists.
    pub fn compute(netlist: &Netlist) -> Result<Self, LevelizeError> {
        netlist.levelize().cloned()
    }

    /// Kahn's pass over the combinational dependency graph, reading the
    /// reader table built in the same [`crate::Topology`] pass.
    pub(crate) fn kahn(netlist: &Netlist, readers: &Readers) -> Result<Self, LevelizeError> {
        // Source gates (primary inputs, constants, DFF *outputs*) have their
        // values available before the frame is evaluated, so an edge whose
        // driver is a source does not gate the reader. A DFF gate itself is
        // still ordered after its (non-source) data driver, so evaluating
        // gates in order also computes correct next-state values. Feedback
        // through storage is therefore legal; feedback through plain gates
        // is a cycle error.
        let is_source: Vec<bool> = netlist.iter().map(|(_, g)| g.kind().is_source()).collect();
        let mut indegree: Vec<u32> = netlist
            .iter()
            .map(|(_, g)| g.inputs().iter().filter(|s| !is_source[s.index()]).count() as u32)
            .collect();
        let mut queue: VecDeque<GateId> = netlist
            .ids()
            .filter(|id| indegree[id.index()] == 0)
            .collect();
        let n = netlist.gate_count();
        let (mut order, mut level, mut depth) = (Vec::with_capacity(n), vec![0u32; n], 0);
        while let Some(id) = queue.pop_front() {
            order.push(id);
            if is_source[id.index()] {
                continue; // level 0, and source edges never gated anyone
            }
            // Every non-source driver is ordered, so its level is final;
            // source drivers sit at level 0.
            let inputs = netlist.gate(id).inputs();
            let lvl = 1 + inputs.iter().map(|s| level[s.index()]).max().unwrap_or(0);
            level[id.index()] = lvl;
            depth = depth.max(lvl);
            for &(reader, _pin) in &readers[id.index()] {
                let ri = reader.index();
                indegree[ri] -= 1;
                if indegree[ri] == 0 {
                    queue.push_back(reader);
                }
            }
        }
        if order.len() != n {
            let on_cycle = netlist
                .ids()
                .find(|id| indegree[id.index()] > 0)
                .expect("missing gates imply a positive indegree");
            return Err(LevelizeError { on_cycle });
        }
        Ok(Levelization {
            order,
            level,
            depth,
        })
    }

    /// Gates in dependency order (every gate after all its combinational
    /// drivers; sources first).
    #[must_use]
    pub fn order(&self) -> &[GateId] {
        &self.order
    }

    /// Logic level of a gate (0 for sources).
    #[must_use]
    pub fn level(&self, id: GateId) -> u32 {
        self.level[id.index()]
    }

    /// Logic level of every gate, indexed by [`GateId::index`].
    #[must_use]
    pub fn levels(&self) -> &[u32] {
        &self.level
    }

    /// Maximum combinational depth of the network.
    #[must_use]
    pub fn depth(&self) -> u32 {
        self.depth
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GateKind;

    #[test]
    fn dff_breaks_cycles() {
        // A classic counter bit: q = DFF(NOT q).
        let mut n = Netlist::new("t");
        let q_placeholder = n.add_const(false);
        let inv = n.add_gate(GateKind::Not, &[q_placeholder]).unwrap();
        let q = n.add_dff(inv).unwrap();
        n.reconnect_input(inv, 0, q).unwrap();
        let lv = n.levelize().expect("dff must break the loop");
        assert_eq!(lv.level(q), 0);
        assert_eq!(lv.level(inv), 1);
    }

    #[test]
    fn combinational_cycle_is_an_error() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let g1 = n.add_gate(GateKind::And, &[a, a]).unwrap();
        let g2 = n.add_gate(GateKind::Or, &[g1, a]).unwrap();
        n.reconnect_input(g1, 1, g2).unwrap();
        let err = n.levelize().unwrap_err();
        assert!(err.on_cycle == g1 || err.on_cycle == g2);
        assert!(err.to_string().contains("combinational cycle"));
    }

    #[test]
    fn order_respects_dependencies() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let x = n.add_gate(GateKind::Nand, &[a, b]).unwrap();
        let y = n.add_gate(GateKind::Nand, &[x, b]).unwrap();
        let z = n.add_gate(GateKind::Nand, &[x, y]).unwrap();
        let lv = n.levelize().unwrap();
        let pos: Vec<usize> = n
            .ids()
            .map(|id| lv.order().iter().position(|&o| o == id).unwrap())
            .collect();
        assert!(pos[x.index()] > pos[a.index()]);
        assert!(pos[y.index()] > pos[x.index()]);
        assert!(pos[z.index()] > pos[y.index()]);
        assert_eq!(lv.depth(), 3);
        assert_eq!(lv.level(z), 3);
    }

    #[test]
    fn deep_dff_is_still_a_source() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let g1 = n.add_gate(GateKind::Not, &[a]).unwrap();
        let g2 = n.add_gate(GateKind::Not, &[g1]).unwrap();
        let d = n.add_dff(g2).unwrap();
        let g3 = n.add_gate(GateKind::And, &[d, a]).unwrap();
        let lv = n.levelize().unwrap();
        assert_eq!(lv.level(d), 0);
        assert_eq!(lv.level(g3), 1);
        // But the DFF appears after its driver in evaluation order.
        let pos_d = lv.order().iter().position(|&o| o == d).unwrap();
        let pos_g2 = lv.order().iter().position(|&o| o == g2).unwrap();
        assert!(pos_d > pos_g2);
    }
}
