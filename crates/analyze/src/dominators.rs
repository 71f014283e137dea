//! Structural observability dominators.
//!
//! Every fault effect must travel from the faulty net to an observation
//! point — a primary output or a capture into storage. The *observation
//! graph* has an edge from each gate to its non-storage readers, plus an
//! edge to a virtual root for every gate that drives a primary output or
//! a storage data pin (captured state counts as observed, the same way
//! SCOAP prices a DFF crossing at one unit). A gate `d` *observability-
//! dominates* `g` when every observation path from `g` passes through
//! `d` — making `d` a single funnel whose failure (or whose poor
//! observability) buries the whole region behind it. The DFT-017 lint
//! rule turns wide dominated regions into observe-point suggestions.
//!
//! The computation is the Cooper–Harvey–Kennedy iterative scheme on the
//! reversed observation graph. Because the observation graph is acyclic
//! (combinational edges strictly increase level; storage nodes have
//! out-edges only), one pass over the gates in decreasing-level order
//! reaches the fixpoint.

use dft_netlist::GateId;

use crate::solver::GraphView;

/// Immediate observability dominators plus dominated-region sizes.
#[derive(Clone, Debug)]
pub struct Dominators {
    /// Immediate dominator per gate; `None` when the gate either cannot
    /// reach an observation point at all or is observed directly (its
    /// immediate dominator is the virtual root).
    idom: Vec<Option<GateId>>,
    /// Whether the gate has any observation path.
    reaches: Vec<bool>,
    /// Number of gates strictly dominated (the region that can only be
    /// observed through this gate).
    dominated: Vec<u32>,
}

impl Dominators {
    /// Whether `g` can reach a primary output or a storage capture
    /// through the combinational frame.
    #[must_use]
    pub fn reaches_observation(&self, g: GateId) -> bool {
        self.reaches[g.index()]
    }

    /// The immediate observability dominator of `g`, if it is a real
    /// gate (directly-observed and unobservable gates return `None`).
    #[must_use]
    pub fn idom(&self, g: GateId) -> Option<GateId> {
        self.idom[g.index()]
    }

    /// How many gates are strictly dominated by `g`: the size of the
    /// region whose every observation path runs through `g`.
    #[must_use]
    pub fn dominated_count(&self, g: GateId) -> usize {
        self.dominated[g.index()] as usize
    }

    /// Computes observability dominators over `view`.
    #[must_use]
    pub fn compute(view: &GraphView<'_>) -> Self {
        let n = view.netlist.gate_count();
        let root = n; // virtual observation root
                      // Processing order: topological order of the *reversed*
                      // observation graph = root, then gates by decreasing level
                      // (every observation edge strictly increases level, see module
                      // docs). `num` is the position in that order; idoms always have
                      // a smaller num, which `intersect` climbs toward.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| (std::cmp::Reverse(view.level[i]), i));
        let mut num = vec![0u32; n + 1];
        for (pos, &i) in order.iter().enumerate() {
            num[i] = pos as u32 + 1;
        }
        // idom in index space; usize::MAX = undefined (unreachable).
        const UNDEF: usize = usize::MAX;
        let mut idom = vec![UNDEF; n + 1];
        idom[root] = root;

        let intersect = |idom: &[usize], num: &[u32], mut a: usize, mut b: usize| -> usize {
            while a != b {
                while num[a] > num[b] {
                    a = idom[a];
                }
                while num[b] > num[a] {
                    b = idom[b];
                }
            }
            a
        };

        for &v in &order {
            // Predecessors in the reversed graph = observation
            // successors of v: its non-storage readers, plus the root
            // when v is observed directly (primary output or storage
            // data pin).
            let mut new_idom = UNDEF;
            let mut consider = |p: usize, idom: &[usize]| {
                if idom[p] == UNDEF {
                    return; // unobservable predecessor contributes no path
                }
                new_idom = if new_idom == UNDEF {
                    p
                } else {
                    intersect(idom, &num, p, new_idom)
                };
            };
            let directly_observed = view.is_output[v]
                || view.readers[v]
                    .iter()
                    .any(|&(r, _)| view.netlist.gate(r).kind().is_storage());
            if directly_observed {
                consider(root, &idom);
            }
            for &(r, _) in &view.readers[v] {
                if !view.netlist.gate(r).kind().is_storage() {
                    consider(r.index(), &idom);
                }
            }
            idom[v] = new_idom;
        }

        // Dominated-region sizes: subtree sizes in the idom tree,
        // accumulated children-first (reverse processing order).
        let mut count = vec![0u32; n + 1];
        for &v in order.iter().rev() {
            if idom[v] == UNDEF {
                continue;
            }
            count[v] += 1;
            let d = idom[v];
            if d != root {
                let c = count[v];
                count[d] += c;
            }
        }

        let reaches: Vec<bool> = (0..n).map(|i| idom[i] != UNDEF).collect();
        let dominated: Vec<u32> = (0..n)
            .map(|i| if reaches[i] { count[i] - 1 } else { 0 })
            .collect();
        let idom = (0..n)
            .map(|i| {
                if idom[i] == UNDEF || idom[i] == root {
                    None
                } else {
                    Some(GateId::from_index(idom[i]))
                }
            })
            .collect();
        Dominators {
            idom,
            reaches,
            dominated,
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::AnalysisCache;
    use dft_netlist::{GateKind, Netlist};

    #[test]
    fn chain_gates_dominate_their_tails() {
        // a -> g1 -> g2 -> g3 -> PO: g3 dominates g1, g2 (and a).
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let g1 = n.add_gate(GateKind::Not, &[a]).unwrap();
        let g2 = n.add_gate(GateKind::Not, &[g1]).unwrap();
        let g3 = n.add_gate(GateKind::Not, &[g2]).unwrap();
        n.mark_output(g3, "y").unwrap();
        let mut cache = AnalysisCache::new(&n).unwrap();
        let dom = cache.dominators().clone();
        assert_eq!(dom.idom(g1), Some(g2));
        assert_eq!(dom.idom(g2), Some(g3));
        assert_eq!(dom.idom(g3), None, "observed directly");
        assert_eq!(dom.dominated_count(g3), 3, "a, g1, g2");
        assert!(dom.reaches_observation(a));
    }

    #[test]
    fn reconvergence_moves_the_dominator_to_the_meet() {
        // a fans out to g1/g2 which reconverge at m -> PO: neither
        // branch dominates a; the meet does.
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g1 = n.add_gate(GateKind::And, &[a, b]).unwrap();
        let g2 = n.add_gate(GateKind::Or, &[a, b]).unwrap();
        let m = n.add_gate(GateKind::Xor, &[g1, g2]).unwrap();
        n.mark_output(m, "y").unwrap();
        let mut cache = AnalysisCache::new(&n).unwrap();
        let dom = cache.dominators().clone();
        assert_eq!(dom.idom(a), Some(m));
        assert_eq!(dom.idom(g1), Some(m));
        assert_eq!(dom.dominated_count(m), 4, "a, b, g1, g2");
    }

    #[test]
    fn dead_logic_is_unobservable_and_storage_counts_as_observed() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let dead = n.add_gate(GateKind::Not, &[a]).unwrap();
        let captured = n.add_gate(GateKind::Not, &[a]).unwrap();
        let _q = n.add_dff(captured).unwrap();
        n.mark_output(a, "y").unwrap();
        let mut cache = AnalysisCache::new(&n).unwrap();
        let dom = cache.dominators().clone();
        assert!(!dom.reaches_observation(dead));
        assert!(dom.reaches_observation(captured), "captured into state");
        assert_eq!(dom.dominated_count(dead), 0);
    }
}
