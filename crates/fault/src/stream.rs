//! Streaming fault enumeration for industrial-scale netlists.
//!
//! [`universe`](crate::universe) materializes a `Vec<Fault>` — fine at
//! ISCAS scale, but at 10⁶ gates the universe runs to ~10⁷ faults, and
//! [`collapse`](crate::collapse) on top of it builds a
//! `HashMap<Fault, usize>` whose per-entry overhead dwarfs the netlist
//! itself. This module provides the same two enumerations as *views*
//! over the netlist's CSR storage:
//!
//! * [`FaultUniverse`] — a constant-space index: `fault(i)` decodes the
//!   `i`-th fault of the universe on demand, and [`FaultUniverse::iter`]
//!   streams the whole universe in exactly
//!   [`universe`](crate::universe) order without allocating per fault.
//! * [`CollapsedUniverse`] — structural equivalence collapsing
//!   ([`collapse`](crate::collapse)'s three rules) computed over fault
//!   *indices* with a flat `u32` union-find: 4 bytes per fault instead
//!   of hash-map nodes, same classes, same smallest-index
//!   representatives.
//!
//! Both plug straight into PPSFP via [`Ppsfp::run_streamed`](crate::Ppsfp::run_streamed)
//! (chunked, bit-identical to the materialized run):
//!
//! ```
//! use dft_netlist::circuits::c17;
//! use dft_fault::{ppsfp, stream::FaultUniverse, universe, Ppsfp};
//! use dft_sim::PatternSet;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), dft_netlist::LevelizeError> {
//! let n = c17();
//! let u = FaultUniverse::new(&n);
//! assert_eq!(u.len(), universe(&n).len());
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let patterns = PatternSet::random(n.primary_inputs().len(), 64, &mut rng);
//! let streamed = Ppsfp::new(&n)?.run_streamed(&patterns, u.iter(), 16);
//! let materialized = ppsfp(&n, &patterns, &universe(&n))?;
//! assert_eq!(streamed.first_detected, materialized.first_detected);
//! # Ok(())
//! # }
//! ```

use dft_netlist::{GateId, GateKind, Netlist, Pin, PortRef};

use crate::collapse::{for_each_equivalence, Census, UnionFind};
use crate::Fault;

/// A constant-space view of the single-stuck-at fault universe.
///
/// Faults are indexed `0..len()` in [`universe`](crate::universe)
/// order: gates in arena order, each contributing its input-pin faults
/// (pin-major, s-a-0 before s-a-1) followed by its output faults.
/// `Input` gates contribute only output faults; constants contribute
/// none. The only allocation is one `u32` prefix-sum per gate.
#[derive(Clone, Debug)]
pub struct FaultUniverse<'n> {
    netlist: &'n Netlist,
    /// `offset[g]..offset[g + 1]` are gate `g`'s fault indices.
    offset: Vec<u32>,
}

impl<'n> FaultUniverse<'n> {
    /// Indexes the fault universe of `netlist`.
    ///
    /// # Panics
    ///
    /// Panics if the universe exceeds `u32::MAX` faults.
    #[must_use]
    pub fn new(netlist: &'n Netlist) -> Self {
        let mut offset = Vec::with_capacity(netlist.gate_count() + 1);
        let mut total = 0u32;
        offset.push(0);
        for (_, gate) in netlist.iter() {
            let here = match gate.kind() {
                GateKind::Const0 | GateKind::Const1 => 0,
                GateKind::Input => 2,
                _ => 2 * gate.fanin() + 2,
            };
            total = total
                .checked_add(u32::try_from(here).expect("fan-in fits u32"))
                .expect("fault universe exceeds u32 index space");
            offset.push(total);
        }
        FaultUniverse { netlist, offset }
    }

    /// The netlist this universe is defined over.
    #[must_use]
    pub fn netlist(&self) -> &'n Netlist {
        self.netlist
    }

    /// Total number of faults.
    #[must_use]
    pub fn len(&self) -> usize {
        *self.offset.last().expect("offset has gate_count+1 entries") as usize
    }

    /// Whether the universe is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Decodes the `i`-th fault of the universe.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[must_use]
    pub fn fault(&self, i: usize) -> Fault {
        let i = u32::try_from(i).expect("index fits u32");
        assert!(
            i < *self.offset.last().expect("non-empty offsets"),
            "fault index out of range"
        );
        // First gate whose span ends beyond i.
        let g = self.offset.partition_point(|&o| o <= i) - 1;
        self.decode(GateId::from_index(g), i - self.offset[g])
    }

    /// The universe index of `fault`, if the fault exists (its site gate
    /// and pin are real and enumerated).
    #[must_use]
    pub fn index_of(&self, fault: Fault) -> Option<usize> {
        let g = fault.site.gate.index();
        if g >= self.netlist.gate_count() {
            return None;
        }
        let span = (self.offset[g + 1] - self.offset[g]) as usize;
        let within = match fault.site.pin {
            Pin::Output => span.checked_sub(2)? + usize::from(fault.stuck),
            Pin::Input(p) => {
                let p = p as usize;
                if span < 2 * (p + 1) + 2 {
                    return None;
                }
                2 * p + usize::from(fault.stuck)
            }
        };
        Some(self.offset[g] as usize + within)
    }

    /// Streams every fault in universe order, allocation-free.
    pub fn iter(&self) -> impl Iterator<Item = Fault> + '_ {
        self.netlist.ids().flat_map(move |id| {
            let g = id.index();
            let span = self.offset[g + 1] - self.offset[g];
            (0..span).map(move |w| self.decode(id, w))
        })
    }

    /// Decodes fault `within` of gate `id`'s span.
    fn decode(&self, id: GateId, within: u32) -> Fault {
        let span = self.offset[id.index() + 1] - self.offset[id.index()];
        debug_assert!(within < span);
        let stuck = within % 2 == 1;
        let site = if within >= span - 2 {
            PortRef::output(id)
        } else {
            PortRef::input(id, u8::try_from(within / 2).expect("pin fits u8"))
        };
        Fault { site, stuck }
    }
}

/// Structural equivalence collapsing over a [`FaultUniverse`], flat and
/// hash-free.
///
/// Applies exactly the three rules of [`collapse`](crate::collapse) —
/// controlling-value equivalence, inverter/buffer mapping, fanout-free
/// stems, written once and shared — over fault *indices*, so the whole
/// computation is one `u32` union-find plus a flat fan-out census.
/// Representatives are the smallest universe index per class, identical
/// to [`Collapse::representatives`](crate::Collapse::representatives).
#[derive(Clone, Debug)]
pub struct CollapsedUniverse<'n> {
    universe: FaultUniverse<'n>,
    /// Fault index → representative fault index (fully resolved).
    rep_of: Vec<u32>,
    class_count: usize,
}

impl<'n> CollapsedUniverse<'n> {
    /// Collapses the full fault universe of `netlist`.
    #[must_use]
    pub fn new(netlist: &'n Netlist) -> Self {
        let universe = FaultUniverse::new(netlist);
        let n = universe.len();
        let mut uf = UnionFind::new(n);
        for_each_equivalence(netlist, &Census::new(netlist), |a, b| {
            if let (Some(a), Some(b)) = (universe.index_of(a), universe.index_of(b)) {
                uf.union(a as u32, b as u32);
            }
        });

        let mut class_count = 0usize;
        let mut rep_of = vec![0u32; n];
        for i in 0..n as u32 {
            let r = uf.find(i);
            rep_of[i as usize] = r;
            if r == i {
                class_count += 1;
            }
        }
        CollapsedUniverse {
            universe,
            rep_of,
            class_count,
        }
    }

    /// The underlying uncollapsed universe.
    #[must_use]
    pub fn universe(&self) -> &FaultUniverse<'n> {
        &self.universe
    }

    /// Number of equivalence classes.
    #[must_use]
    pub fn class_count(&self) -> usize {
        self.class_count
    }

    /// The collapse ratio `classes / universe`.
    #[must_use]
    pub fn ratio(&self) -> f64 {
        if self.universe.is_empty() {
            1.0
        } else {
            self.class_count as f64 / self.universe.len() as f64
        }
    }

    /// The representative fault of fault index `i`'s class.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn representative(&self, i: usize) -> Fault {
        self.universe.fault(self.rep_of[i] as usize)
    }

    /// Streams one representative fault per class, in universe order —
    /// the same faults, in the same order, as
    /// [`Collapse::representatives`](crate::Collapse::representatives),
    /// without materializing either list.
    pub fn representatives(&self) -> impl Iterator<Item = Fault> + '_ {
        self.rep_of
            .iter()
            .enumerate()
            .filter(|&(i, &r)| i == r as usize)
            .map(|(i, _)| self.universe.fault(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{collapse, universe};
    use dft_netlist::circuits::{self, c17};

    #[test]
    fn streams_exact_universe_order() {
        for n in [
            c17(),
            circuits::full_adder(),
            circuits::binary_counter(5),
            circuits::random_combinational(8, 300, 7),
            circuits::layered_random(32, 2_000, 3),
        ] {
            let want = universe(&n);
            let u = FaultUniverse::new(&n);
            assert_eq!(u.len(), want.len());
            let got: Vec<Fault> = u.iter().collect();
            assert_eq!(got, want, "order mismatch on {}", n.name());
            for (i, &f) in want.iter().enumerate() {
                assert_eq!(u.fault(i), f);
                assert_eq!(u.index_of(f), Some(i));
            }
        }
    }

    #[test]
    fn constants_and_inputs_enumerate_correctly() {
        let mut n = dft_netlist::Netlist::new("t");
        let c = n.add_const(true);
        let a = n.add_input("a");
        let g = n.add_gate(dft_netlist::GateKind::And, &[a, c]).unwrap();
        n.mark_output(g, "y").unwrap();
        let u = FaultUniverse::new(&n);
        assert_eq!(u.len(), 8, "const contributes nothing, PI 2, AND 6");
        assert_eq!(u.iter().collect::<Vec<_>>(), universe(&n));
        assert_eq!(
            u.index_of(Fault {
                site: PortRef::output(c),
                stuck: true,
            }),
            None,
            "constant faults are not in the universe"
        );
        assert_eq!(
            u.index_of(Fault {
                site: PortRef::input(g, 7),
                stuck: false,
            }),
            None,
            "nonexistent pins decode to nothing"
        );
    }

    #[test]
    fn out_of_range_gate_is_rejected() {
        let n = c17();
        let u = FaultUniverse::new(&n);
        let ghost = Fault {
            site: PortRef::output(GateId::from_index(10_000)),
            stuck: false,
        };
        assert_eq!(u.index_of(ghost), None);
    }

    #[test]
    fn collapse_matches_materialized_classes() {
        for n in [
            c17(),
            circuits::full_adder(),
            circuits::binary_counter(5),
            circuits::random_combinational(8, 300, 7),
            circuits::layered_random(32, 2_000, 3),
        ] {
            let faults = universe(&n);
            let reference = collapse(&n, &faults);
            let streamed = CollapsedUniverse::new(&n);
            assert_eq!(
                streamed.class_count(),
                reference.class_count(),
                "class count on {}",
                n.name()
            );
            assert!((streamed.ratio() - reference.ratio()).abs() < 1e-12);
            for i in 0..faults.len() {
                assert_eq!(
                    streamed.representative(i),
                    reference.representative(i),
                    "representative of fault {i} on {}",
                    n.name()
                );
            }
            let reps: Vec<Fault> = streamed.representatives().collect();
            assert_eq!(reps, reference.representatives(), "reps on {}", n.name());
        }
    }

    #[test]
    fn streamed_ppsfp_is_bit_identical_to_materialized() {
        use dft_sim::PatternSet;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        for n in [
            c17(),
            circuits::random_combinational(10, 400, 9),
            circuits::layered_random(32, 3_000, 4),
        ] {
            let patterns = PatternSet::random(n.primary_inputs().len(), 130, &mut rng);
            let engine = crate::Ppsfp::new(&n).unwrap();
            let faults = universe(&n);
            let reference = engine.run(&patterns, &faults);
            let u = FaultUniverse::new(&n);
            // Chunk sizes that divide unevenly, including degenerate 1.
            for chunk in [1usize, 37, 1 << 14] {
                let streamed = engine.run_streamed(&patterns, u.iter(), chunk);
                assert_eq!(
                    streamed.first_detected,
                    reference.first_detected,
                    "chunk {chunk} on {}",
                    n.name()
                );
                assert_eq!(streamed.pattern_count, reference.pattern_count);
            }
            // Collapsed stream vs materialized representatives.
            let col = CollapsedUniverse::new(&n);
            let reps: Vec<Fault> = collapse(&n, &faults).representatives();
            let streamed = engine.run_streamed(&patterns, col.representatives(), 256);
            let reference = engine.run(&patterns, &reps);
            assert_eq!(streamed.first_detected, reference.first_detected);
        }
    }

    #[test]
    fn empty_netlist_collapses_trivially() {
        let n = dft_netlist::Netlist::new("empty");
        let col = CollapsedUniverse::new(&n);
        assert_eq!(col.class_count(), 0);
        assert!(col.universe().is_empty());
        assert!((col.ratio() - 1.0).abs() < 1e-12);
        assert_eq!(col.representatives().count(), 0);
    }
}
