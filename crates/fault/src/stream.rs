//! The fault list: one enumerator and one collapse, both views over the
//! netlist's CSR storage.
//!
//! * [`FaultUniverse`] — a constant-space index: `fault(i)` decodes the
//!   `i`-th fault of the universe on demand, and [`FaultUniverse::iter`]
//!   streams the whole universe without allocating per fault.
//!   [`universe`](crate::universe) is that stream collected.
//! * [`CollapsedUniverse`] — structural equivalence collapsing computed
//!   over fault *indices* with a flat `u32` union-find: 4 bytes per fault
//!   and no per-fault hashing, so a 10⁶-gate netlist (~10⁷ faults)
//!   collapses without a per-fault map.
//!   [`dominance_collapse`](crate::dominance_collapse) builds the ATPG
//!   target list from its representatives.
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

use crate::collapse::{for_each_equivalence, UnionFind};
use crate::Fault;

/// A constant-space view of the single-stuck-at fault universe.
///
/// Faults are indexed `0..len()` in the one order every fault list in
/// the crate shares: gates in arena order, each contributing its input-pin faults
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
            let here = 2 * fault_pins(gate.kind(), gate.fanin());
            total = total
                .checked_add(here)
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
        self.decode(g, i)
    }

    /// Fault `i` of the universe, which gate `g`'s span holds.
    fn decode(&self, g: usize, i: u32) -> Fault {
        let within = i - self.offset[g];
        let pins = (self.offset[g + 1] - self.offset[g]) / 2;
        Fault {
            site: site(GateId::from_index(g), within / 2, pins),
            stuck: within % 2 == 1,
        }
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

    /// Streams every fault in universe order, allocation-free. The
    /// stream knows its exact length, so
    /// [`Ppsfp::run_streamed`](crate::Ppsfp::run_streamed) can size its
    /// run from it.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = Fault> + '_ {
        let faults = self.offset.windows(2).enumerate().flat_map(|(g, w)| {
            let id = GateId::from_index(g);
            let pins = (w[1] - w[0]) / 2;
            (0..pins).flat_map(move |p| {
                let site = site(id, p, pins);
                [false, true].map(|stuck| Fault { site, stuck })
            })
        });
        Counted {
            inner: faults,
            left: self.len(),
        }
    }
}

/// The faults `gate` contributes to the universe of `netlist`, in
/// universe order: what [`FaultUniverse::iter`] yields for that gate.
///
/// # Panics
///
/// Panics if `gate` is not a gate of `netlist`.
pub fn gate_faults(netlist: &Netlist, gate: GateId) -> impl Iterator<Item = Fault> {
    let g = netlist.gate(gate);
    let pins = fault_pins(g.kind(), g.fanin());
    (0..pins).flat_map(move |p| {
        let site = site(gate, p, pins);
        [false, true].map(|stuck| Fault { site, stuck })
    })
}

/// The pins a gate of `kind` with `fanin` inputs carries faults on:
/// none for a constant, the output of an input, and every pin of the
/// rest.
fn fault_pins(kind: GateKind, fanin: usize) -> u32 {
    match kind {
        GateKind::Const0 | GateKind::Const1 => 0,
        GateKind::Input => 1,
        _ => u32::try_from(fanin + 1).expect("fan-in fits u32"),
    }
}

/// An iterator that yields exactly `left` more items and says so in its
/// `size_hint`.
struct Counted<I> {
    inner: I,
    left: usize,
}

impl<I: Iterator> Iterator for Counted<I> {
    type Item = I::Item;

    fn next(&mut self) -> Option<I::Item> {
        let item = self.inner.next()?;
        self.left -= 1;
        Some(item)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl<I: Iterator> ExactSizeIterator for Counted<I> {}

/// Pin `p` of a gate with `pins` enumerated pins: its input pins in
/// order, then its output.
fn site(id: GateId, p: u32, pins: u32) -> PortRef {
    if p + 1 == pins {
        PortRef::output(id)
    } else {
        PortRef::input(id, u8::try_from(p).expect("fan-in is capped at 256"))
    }
}

/// Structural equivalence collapsing over a [`FaultUniverse`], flat and
/// hash-free.
///
/// Applies the three structural rules — controlling-value equivalence,
/// inverter/buffer mapping, fanout-free stems — over fault *indices*, so
/// the whole computation is one `u32` union-find over the netlist's
/// memoized reader lists. Each class is represented by its smallest universe index.
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
        for_each_equivalence(netlist, |a, b| {
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

    /// The class of fault index `i`, named by its representative's
    /// universe index.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn class_of(&self, i: usize) -> usize {
        self.rep_of[i] as usize
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

    /// Streams one representative fault per class, in universe order,
    /// without materializing the list. The stream knows its exact
    /// length, [`CollapsedUniverse::class_count`].
    pub fn representatives(&self) -> impl ExactSizeIterator<Item = Fault> + '_ {
        // Representatives come in ascending index order, so a cursor
        // walks the gate offsets forward instead of searching them.
        let offset = &self.universe.offset;
        let mut g = 0;
        let reps = self
            .rep_of
            .iter()
            .enumerate()
            .filter(|&(i, &r)| i == r as usize)
            .map(move |(i, _)| {
                let i = i as u32;
                while offset[g + 1] <= i {
                    g += 1;
                }
                self.universe.decode(g, i)
            });
        Counted {
            inner: reps,
            left: self.class_count,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{dominance_collapse, universe};
    use dft_netlist::circuits::{self, c17};

    #[test]
    fn random_access_matches_the_stream() {
        for n in [
            c17(),
            circuits::full_adder(),
            circuits::binary_counter(5),
            circuits::random_combinational(8, 300, 7),
            circuits::layered_random(32, 2_000, 3),
        ] {
            let u = FaultUniverse::new(&n);
            assert_eq!(u.iter().count(), u.len());
            for (i, f) in u.iter().enumerate() {
                assert_eq!(u.fault(i), f);
                assert_eq!(u.index_of(f), Some(i));
            }
        }
    }

    #[test]
    fn streams_report_their_exact_length() {
        for n in [c17(), circuits::layered_random(32, 2_000, 3)] {
            let u = FaultUniverse::new(&n);
            let col = CollapsedUniverse::new(&n);
            let mut all = u.iter();
            let mut reps = col.representatives();
            for left in (0..=u.len()).rev() {
                assert_eq!(all.size_hint(), (left, Some(left)));
                assert_eq!(all.next().is_some(), left > 0);
            }
            for left in (0..=col.class_count()).rev() {
                assert_eq!(reps.len(), left);
                assert_eq!(reps.next().is_some(), left > 0);
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
            let reps: Vec<Fault> = col.representatives().collect();
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
        assert!(dominance_collapse(&n).is_empty());
    }
}
