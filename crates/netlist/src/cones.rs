//! Structural cone queries: fan-in closures, exclusive fan-in regions
//! and reconvergent fanout.
//!
//! Test reasoning constantly asks "what feeds this net" (justification,
//! edge-connector diagnosis) and "which branches of this net meet
//! again" (correlated sensitization). The fan-out side of every query
//! reads the netlist's memoized [`Topology`].

use std::collections::HashSet;

use crate::{GateId, Netlist, Topology};

/// The transitive fan-in cone of `roots` (including the roots).
///
/// With `through_storage = false` the walk stops at storage outputs (the
/// combinational frame's cone); with `true` it continues through the
/// data inputs (the multi-cycle cone).
///
/// ```
/// use dft_netlist::{circuits::c17, cones::fanin_cone};
///
/// let c17 = c17();
/// let out = c17.primary_outputs()[0].0;
/// let cone = fanin_cone(&c17, &[out], false);
/// assert!(cone.len() > 1 && cone.len() <= c17.gate_count());
/// ```
#[must_use]
pub fn fanin_cone(netlist: &Netlist, roots: &[GateId], through_storage: bool) -> HashSet<GateId> {
    let mut cone = HashSet::new();
    let mut stack: Vec<GateId> = roots.to_vec();
    while let Some(g) = stack.pop() {
        if !cone.insert(g) {
            continue;
        }
        let gate = netlist.gate(g);
        if gate.kind().is_storage() && !through_storage {
            continue;
        }
        stack.extend(gate.inputs().iter().copied());
    }
    cone
}

/// Gates whose every fanout path dies at `root`: the logic that exists
/// *only* to compute that net.
///
/// A gate belongs to the region when it is a plain logic gate (not a
/// source, not storage, not a primary output) and every one of its
/// readers is the root or already in the region. If `root`'s output is
/// replaced (for example folded to a constant after a redundancy
/// proof), the region is exactly the set of gates that become dead and
/// can be deleted without touching any kept connection.
///
/// `topology` is the netlist's [`Netlist::topology`] (its reader lists
/// and output mask). The walk stays inside the combinational frame (it
/// does not cross storage). The root itself is not included; the result
/// is sorted by arena order.
#[must_use]
pub fn exclusive_fanin_region(netlist: &Netlist, root: GateId, topology: &Topology) -> Vec<GateId> {
    let (fanout, is_output) = (topology.readers(), topology.output_mask());
    let cone = fanin_cone(netlist, &[root], false);
    let mut candidates: Vec<GateId> = cone
        .into_iter()
        .filter(|&g| {
            let kind = netlist.gate(g).kind();
            g != root
                && !kind.is_source()
                && !kind.is_storage()
                && !is_output[g.index()]
                && !fanout[g.index()].is_empty()
        })
        .collect();
    candidates.sort();

    let mut in_region = vec![false; netlist.gate_count()];
    in_region[root.index()] = true;
    // Fixpoint: each pass can only grow the region, and the candidate
    // set is a cone, so the loop terminates after at most |cone| passes.
    loop {
        let mut changed = false;
        for &g in &candidates {
            if !in_region[g.index()]
                && fanout[g.index()]
                    .iter()
                    .all(|&(reader, _)| in_region[reader.index()])
            {
                in_region[g.index()] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    candidates.retain(|&g| in_region[g.index()]);
    candidates
}

/// A reconvergent-fanout pair: two (or more) fanout branches of `stem`
/// meet again at `meet`.
///
/// Reconvergence is the structural condition behind correlated path
/// sensitization — the reason single-path reasoning (and the simplest
/// testability heuristics) under- or over-estimate what a fault on the
/// stem can do at the meet point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Reconvergence {
    /// The multi-fanout net whose branches reconverge.
    pub stem: GateId,
    /// The shallowest gate where two distinct branches meet again.
    pub meet: GateId,
}

/// Finds every stem whose fanout branches reconverge within the
/// combinational frame.
///
/// One [`Reconvergence`] is reported per stem, with the shallowest meet
/// gate (ties broken by arena order). Branch walks stop at storage
/// elements — reconvergence across clock cycles is a different (timing)
/// phenomenon. Stems with more than 32 fanout branches are analyzed
/// through their first 32. `topology` is the netlist's
/// [`Netlist::topology`]; a cyclic netlist has no levels to rank meets
/// by and yields an empty list.
///
/// ```
/// use dft_netlist::{circuits::c17, cones::reconvergent_fanouts};
///
/// // c17's branching NAND structure reconverges; a fanout-free tree
/// // would yield an empty list.
/// let c17 = c17();
/// assert!(!reconvergent_fanouts(&c17, c17.topology()).is_empty());
/// ```
#[must_use]
pub fn reconvergent_fanouts(netlist: &Netlist, topology: &Topology) -> Vec<Reconvergence> {
    let Ok(lv) = topology.levelization() else {
        return Vec::new();
    };
    let fanout = topology.readers();
    let mut seen = vec![0u32; netlist.gate_count()];
    let mut touched: Vec<usize> = Vec::new();
    let mut out = Vec::new();

    for stem in netlist.ids() {
        let branches = &fanout[stem.index()];
        if branches.len() < 2 {
            continue;
        }
        for &i in &touched {
            seen[i] = 0;
        }
        touched.clear();
        let mut meet: Option<GateId> = None;
        let better = |cand: GateId, best: Option<GateId>| match best {
            None => Some(cand),
            Some(b) if (lv.level(cand), cand) < (lv.level(b), b) => Some(cand),
            keep => keep,
        };
        for (b, &(reader, _)) in branches.iter().take(32).enumerate() {
            if netlist.gate(reader).kind().is_storage() {
                continue;
            }
            let bit = 1u32 << b;
            let mut stack = vec![reader];
            while let Some(g) = stack.pop() {
                let gi = g.index();
                if seen[gi] & bit != 0 {
                    continue;
                }
                if seen[gi] != 0 {
                    // Already reached from an earlier branch: a meet.
                    // Everything past it was explored by that branch, so
                    // this branch need not walk on.
                    meet = better(g, meet);
                    continue;
                }
                touched.push(gi);
                seen[gi] |= bit;
                for &(r, _) in &fanout[gi] {
                    if !netlist.gate(r).kind().is_storage() {
                        stack.push(r);
                    }
                }
            }
        }
        if let Some(meet) = meet {
            out.push(Reconvergence { stem, meet });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuits::c17;
    use crate::{GateKind, Netlist as NL};

    fn reconvergence(n: &NL) -> Vec<Reconvergence> {
        reconvergent_fanouts(n, n.topology())
    }

    fn exclusive_region(n: &NL, root: GateId) -> Vec<GateId> {
        exclusive_fanin_region(n, root, n.topology())
    }

    #[test]
    fn c17_output_cone_is_its_support() {
        let n = c17();
        let g22 = n.find_output("22").unwrap();
        let cone = fanin_cone(&n, &[g22], false);
        // g22 = NAND(g10, g16); support = {1,2,3,6} ∪ internal = 8 gates.
        assert_eq!(cone.len(), 8);
        // Input "7" is not in g22's cone.
        let in7 = n.find_input("7").unwrap();
        assert!(!cone.contains(&in7));
    }

    #[test]
    fn fanout_free_tree_has_no_reconvergence() {
        // A balanced XOR tree: every net has exactly one reader.
        let n = crate::circuits::parity_tree(8);
        assert!(reconvergence(&n).is_empty());
    }

    #[test]
    fn diamond_reconverges_at_the_join() {
        let mut n = NL::new("diamond");
        let a = n.add_input("a");
        let p = n.add_gate(GateKind::Not, &[a]).unwrap();
        let q = n.add_gate(GateKind::Buf, &[a]).unwrap();
        let j = n.add_gate(GateKind::And, &[p, q]).unwrap();
        n.mark_output(j, "y").unwrap();
        let rec = reconvergence(&n);
        assert_eq!(rec, vec![Reconvergence { stem: a, meet: j }]);
    }

    #[test]
    fn same_reader_on_two_pins_is_immediate_reconvergence() {
        let mut n = NL::new("t");
        let a = n.add_input("a");
        let g = n.add_gate(GateKind::Xor, &[a, a]).unwrap();
        n.mark_output(g, "y").unwrap();
        let rec = reconvergence(&n);
        assert_eq!(rec, vec![Reconvergence { stem: a, meet: g }]);
    }

    #[test]
    fn shallowest_meet_is_reported() {
        // a fans out to b and c; b,c meet at m1 (level 2), and again at
        // m2 (level 3). Only m1 is reported.
        let mut n = NL::new("t");
        let a = n.add_input("a");
        let b = n.add_gate(GateKind::Not, &[a]).unwrap();
        let c = n.add_gate(GateKind::Buf, &[a]).unwrap();
        let m1 = n.add_gate(GateKind::And, &[b, c]).unwrap();
        let m2 = n.add_gate(GateKind::Or, &[m1, c]).unwrap();
        n.mark_output(m2, "y").unwrap();
        let rec = reconvergence(&n);
        let of_a: Vec<_> = rec.iter().filter(|r| r.stem == a).collect();
        assert_eq!(of_a.len(), 1);
        assert_eq!(of_a[0].meet, m1);
    }

    #[test]
    fn storage_bounds_the_branch_walk() {
        // Branches reconverge only through a DFF: not reported.
        let mut n = NL::new("t");
        let a = n.add_input("a");
        let p = n.add_gate(GateKind::Not, &[a]).unwrap();
        let d = n.add_dff(p).unwrap();
        let j = n.add_gate(GateKind::And, &[d, a]).unwrap();
        n.mark_output(j, "y").unwrap();
        // a's branches: p (→ DFF, stops) and j directly — no comb meet.
        assert!(reconvergence(&n).iter().all(|r| r.stem != a));
    }

    #[test]
    fn roots_are_included_and_disjoint_roots_merge() {
        let mut n = NL::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let x = n.add_gate(GateKind::Not, &[a]).unwrap();
        let y = n.add_gate(GateKind::Not, &[b]).unwrap();
        let cone = fanin_cone(&n, &[x, y], false);
        assert_eq!(cone.len(), 4);
    }

    #[test]
    fn exclusive_region_collects_only_private_feeders() {
        let mut n = NL::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        // shared feeds both the root's cone and live logic; private and
        // deeper feed only the root.
        let shared = n.add_gate(GateKind::Not, &[a]).unwrap();
        let deeper = n.add_gate(GateKind::Not, &[b]).unwrap();
        let private = n.add_gate(GateKind::And, &[shared, deeper]).unwrap();
        let root = n.add_gate(GateKind::Or, &[private, a]).unwrap();
        let live = n.add_gate(GateKind::Xor, &[shared, b]).unwrap();
        n.mark_output(root, "r").unwrap();
        n.mark_output(live, "l").unwrap();
        assert_eq!(exclusive_region(&n, root), vec![deeper, private]);
    }

    #[test]
    fn exclusive_region_respects_outputs_and_sources() {
        let mut n = NL::new("t");
        let a = n.add_input("a");
        let observed = n.add_gate(GateKind::Not, &[a]).unwrap();
        let root = n.add_gate(GateKind::Not, &[observed]).unwrap();
        n.mark_output(observed, "mid").unwrap();
        n.mark_output(root, "y").unwrap();
        // `observed` only feeds the root, but it is itself a primary
        // output, so it must survive a fold of the root.
        assert!(exclusive_region(&n, root).is_empty());
    }
}
