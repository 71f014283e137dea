//! Structural fault collapsing: equivalence and dominance.
//!
//! §I-B of the paper: "Some reduction in the number of single stuck-at
//! faults can be achieved by fault equivalencing … the number of single
//! stuck-at faults needed to be assumed is about 3000" (from 6000 for a
//! 1000-gate network). These are the classic structural rules:
//!
//! * controlling-input equivalence — an AND input s-a-0 is equivalent to
//!   the AND output s-a-0 (NAND: output s-a-1; OR: output s-a-1;
//!   NOR: output s-a-0);
//! * inverter/buffer equivalence — the input fault maps through the gate;
//! * fanout-free stems — a driver's output fault is equivalent to the
//!   sole reader's input fault.
//!
//! The rules are written once, in [`for_each_equivalence`], and run
//! through one flat union-find by
//! [`CollapsedUniverse`](crate::stream::CollapsedUniverse).
//! [`dominance_collapse`] reduces its representatives further to the ATPG
//! target list.

use dft_netlist::{GateKind, Netlist, Pin, PortRef};

use crate::stream::CollapsedUniverse;
use crate::Fault;

/// A flat union-find over fault indices. Each union keeps the smaller
/// root, so every class root is the class's minimum index whatever the
/// union order.
pub(crate) struct UnionFind {
    parent: Vec<u32>,
}

impl UnionFind {
    /// `n` singleton classes.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds the `u32` index space.
    pub(crate) fn new(n: usize) -> Self {
        let n = u32::try_from(n).expect("fault universe exceeds u32 index space");
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    pub(crate) fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            self.parent[x as usize] = self.parent[self.parent[x as usize] as usize];
            x = self.parent[x as usize];
        }
        x
    }

    pub(crate) fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.parent[hi as usize] = lo;
        }
    }
}

/// Calls `merge(a, b)` for every pair of faults the three structural
/// equivalence rules declare equivalent. Pairs are named whether or not
/// the caller's universe holds both faults; the caller skips the rest.
pub(crate) fn for_each_equivalence(netlist: &Netlist, mut merge: impl FnMut(Fault, Fault)) {
    let topology = netlist.topology();
    let (readers, is_po) = (topology.readers(), topology.output_mask());
    for (id, gate) in netlist.iter() {
        // Rule 1: controlling-value equivalence through the gate.
        if let Some(c) = gate.kind().controlling_value() {
            let out = Fault {
                site: PortRef::output(id),
                stuck: c != gate.kind().inverts(),
            };
            for pin in 0..gate.fanin() {
                let input = Fault {
                    site: PortRef::input(id, pin as u8),
                    stuck: c,
                };
                merge(input, out);
            }
        }
        // Rule 2: single-input gates map both polarities through.
        if matches!(gate.kind(), GateKind::Buf | GateKind::Not) {
            let flip = gate.kind() == GateKind::Not;
            for v in [false, true] {
                let input = Fault {
                    site: PortRef::input(id, 0),
                    stuck: v,
                };
                let out = Fault {
                    site: PortRef::output(id),
                    stuck: v != flip,
                };
                merge(input, out);
            }
        }
        // Rule 3: fanout-free stem — driver output fault ≡ sole reader's
        // input fault (unless the stem is also observed as a primary
        // output, where the faults differ in observability).
        if let (&[(reader, pin)], false) = (&readers[id.index()], is_po[id.index()]) {
            for v in [false, true] {
                let stem = Fault {
                    site: PortRef::output(id),
                    stuck: v,
                };
                let branch = Fault {
                    site: PortRef::input(reader, pin),
                    stuck: v,
                };
                merge(stem, branch);
            }
        }
    }
}

/// The dominance-reduced ATPG target list of `netlist`: one
/// representative per equivalence class of the full universe
/// ([`CollapsedUniverse::representatives`], in universe order), minus the
/// gate-output faults that dominate their own input faults.
///
/// For an AND/NAND (resp. OR/NOR) gate, the output
/// s-a-noncontrolled-response fault dominates every input
/// s-a-noncontrolling fault — any test for the input fault also detects
/// it — so it is dropped. Unlike equivalence, dominance is
/// one-directional: the dominator can also be detected by patterns that
/// miss every dominated input fault (two controlling inputs at once), so
/// coverage of the targets is not per-fault coverage of the universe.
/// Primary-output drivers keep their output faults, which differ from the
/// input faults in observability.
#[must_use]
pub fn dominance_collapse(netlist: &Netlist) -> Vec<Fault> {
    let is_po = netlist.topology().output_mask();
    let dominates_inputs = |f: &Fault| {
        let kind = netlist.gate(f.site.gate).kind();
        f.site.pin == Pin::Output
            && !is_po[f.site.gate.index()]
            && kind
                .controlling_value()
                .is_some_and(|c| f.stuck == (c == kind.inverts()))
    };
    CollapsedUniverse::new(netlist)
        .representatives()
        .filter(|f| !dominates_inputs(f))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe;
    use dft_netlist::circuits::c17;
    use dft_netlist::{GateKind, Netlist};

    #[test]
    fn and_gate_classes() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g = n.add_gate(GateKind::And, &[a, b]).unwrap();
        n.mark_output(g, "y").unwrap();
        let col = CollapsedUniverse::new(&n);
        // Universe: a.out×2, b.out×2, g.in0×2, g.in1×2, g.out×2 = 10.
        // Equivalences: {g.in0/0, g.in1/0, g.out/0} merge;
        // a.out/v ≡ g.in0/v (fanout-free stem), b.out/v ≡ g.in1/v.
        // Classes: {a0,in0-0,b0,in1-0,out0}? Careful: a.out/0 ≡ g.in0/0 ≡ g.out/0
        // and b.out/0 ≡ g.in1/0 ≡ g.out/0 — all s-a-0 merge into one class.
        // s-a-1: {a1,in0-1}, {b1,in1-1}, {out1} → 3 classes.
        assert_eq!(col.class_count(), 4);
        assert!((col.ratio() - 0.4).abs() < 1e-9);
    }

    #[test]
    fn inverter_chain_collapses_to_two_classes() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let g1 = n.add_gate(GateKind::Not, &[a]).unwrap();
        let g2 = n.add_gate(GateKind::Not, &[g1]).unwrap();
        n.mark_output(g2, "y").unwrap();
        // Everything chains through: a/v ≡ g1.in/v ≡ g1.out/!v ≡ g2.in/!v ≡ g2.out/v
        assert_eq!(CollapsedUniverse::new(&n).class_count(), 2);
    }

    #[test]
    fn xor_gates_do_not_collapse_inputs() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g = n.add_gate(GateKind::Xor, &[a, b]).unwrap();
        n.mark_output(g, "y").unwrap();
        // Only stem equivalences apply: a↔in0, b↔in1 → classes:
        // in0/0, in0/1, in1/0, in1/1, out/0, out/1 = 6.
        assert_eq!(CollapsedUniverse::new(&n).class_count(), 6);
    }

    #[test]
    fn c17_collapse_is_roughly_half() {
        let n = c17();
        let col = CollapsedUniverse::new(&n);
        assert!(col.class_count() < col.universe().len());
        // Known value for c17 under these rules.
        assert!(
            col.ratio() > 0.3 && col.ratio() < 0.7,
            "ratio {} out of expected band",
            col.ratio()
        );
    }

    #[test]
    fn representative_is_stable_and_in_class() {
        let n = c17();
        let faults = universe(&n);
        let col = CollapsedUniverse::new(&n);
        for i in 0..faults.len() {
            let rep = col.representative(i);
            let r = faults.iter().position(|&f| f == rep).unwrap();
            assert!(r <= i, "the representative is the class's first fault");
            assert_eq!(col.representative(r), rep);
        }
        assert_eq!(col.representatives().count(), col.class_count());
    }

    #[test]
    fn dominance_reduces_further() {
        let n = c17();
        let eq = CollapsedUniverse::new(&n).class_count();
        let dom = dominance_collapse(&n).len();
        assert!(dom < eq, "dominance must drop some targets ({dom} vs {eq})");
    }

    #[test]
    fn a_test_set_for_the_targets_covers_c17() {
        // c17 has no redundancy, so by dominance any pattern set that
        // detects every target detects every universe fault. Take, per
        // target, the first exhaustive pattern that detects it.
        let n = c17();
        let rows: Vec<Vec<bool>> = (0..32u8)
            .map(|v| (0..5).map(|i| v >> i & 1 == 1).collect())
            .collect();
        let all = dft_sim::PatternSet::from_rows(5, &rows);
        let on_targets = crate::simulate(&n, &all, &dominance_collapse(&n)).unwrap();
        let mut picked: Vec<usize> = on_targets
            .first_detected
            .iter()
            .map(|d| d.expect("every c17 target is testable"))
            .collect();
        picked.sort_unstable();
        picked.dedup();
        let picked_rows: Vec<Vec<bool>> = picked.iter().map(|&p| rows[p].clone()).collect();
        assert!(picked.len() < rows.len(), "a strict subset of the 32");
        let subset = dft_sim::PatternSet::from_rows(5, &picked_rows);
        let r = crate::simulate(&n, &subset, &universe(&n)).unwrap();
        assert_eq!(r.coverage(), 1.0);
    }

    #[test]
    fn and_output_sa1_is_dropped_but_its_inputs_stay() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g = n.add_gate(GateKind::And, &[a, b]).unwrap();
        let inv = n.add_gate(GateKind::Not, &[g]).unwrap();
        n.mark_output(inv, "y").unwrap();
        let faults = universe(&n);
        let col = CollapsedUniverse::new(&n);
        let targets = dominance_collapse(&n);
        let class_of = |site, stuck| {
            let i = faults.iter().position(|&f| f == Fault { site, stuck });
            col.representative(i.unwrap())
        };
        let out_sa1 = class_of(PortRef::output(g), true);
        assert_eq!(out_sa1.site, PortRef::output(g), "it heads its class");
        assert!(!targets.contains(&out_sa1), "the dominator is no target");
        for pin in 0..2 {
            let witness = class_of(PortRef::input(g, pin), true);
            assert!(targets.contains(&witness), "input {pin} s-a-1 stays");
        }
    }

    #[test]
    fn po_stems_are_not_collapsed_into_readers() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let g1 = n.add_gate(GateKind::Buf, &[a]).unwrap();
        let g2 = n.add_gate(GateKind::Not, &[g1]).unwrap();
        n.mark_output(g1, "tap").unwrap(); // g1 is both a stem and a PO
        n.mark_output(g2, "y").unwrap();
        let faults = universe(&n);
        let col = CollapsedUniverse::new(&n);
        // g1.out faults must stay distinct from g2.in faults.
        let i_out = faults
            .iter()
            .position(|f| f.site == PortRef::output(g1) && !f.stuck)
            .unwrap();
        let i_in = faults
            .iter()
            .position(|f| f.site == PortRef::input(g2, 0) && !f.stuck)
            .unwrap();
        assert_ne!(col.representative(i_out), col.representative(i_in));
    }
}
