//! Fault definition and universe enumeration.

use std::fmt;

use dft_netlist::{Netlist, PortRef};

use crate::stream::FaultUniverse;

/// A single stuck-at fault: one gate pin fixed at 0 or 1 (paper §I-A,
/// Fig. 1).
///
/// ```
/// use dft_netlist::{GateId, Pin, PortRef};
/// use dft_fault::Fault;
///
/// let f = Fault::stuck_at_1(PortRef::input(GateId::from_index(2), 0));
/// assert_eq!(f.to_string(), "g2.in0 s-a-1");
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Fault {
    /// The faulted pin.
    pub site: PortRef,
    /// The value the pin is stuck at.
    pub stuck: bool,
}

impl Fault {
    /// A stuck-at-0 fault at `site`.
    #[must_use]
    pub fn stuck_at_0(site: PortRef) -> Self {
        Fault { site, stuck: false }
    }

    /// A stuck-at-1 fault at `site`.
    #[must_use]
    pub fn stuck_at_1(site: PortRef) -> Self {
        Fault { site, stuck: true }
    }
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} s-a-{}", self.site, u8::from(self.stuck))
    }
}

/// Enumerates the full single-stuck-at universe of `netlist`: for every
/// logic gate, both polarities on the output pin and on each input pin.
///
/// Primary-input *stems* are covered by the input pins of the gates they
/// feed plus the `Input` gate's own output pin. Constants are excluded
/// (a stuck constant is either benign or equivalent to the consuming-pin
/// fault). A 1000-gate two-input network yields the paper's "maximum
/// number of single stuck-at faults … 6000".
///
/// This is [`FaultUniverse::iter`] collected: the order, and every index
/// into the list, is the [`FaultUniverse`] order.
#[must_use]
pub fn universe(netlist: &Netlist) -> Vec<Fault> {
    let u = FaultUniverse::new(netlist);
    let mut faults = Vec::with_capacity(u.len());
    // Internal iteration runs each gate's pins as one tight loop, where
    // `collect` would pay the nested iterator's bookkeeping per fault.
    u.iter().for_each(|f| faults.push(f));
    faults
}

#[cfg(test)]
mod tests {
    use super::*;
    use dft_netlist::circuits::c17;
    use dft_netlist::{GateKind, Netlist};

    #[test]
    fn two_input_gate_network_matches_paper_count() {
        // The paper: 1000 two-input gates → at most 6000 faults. Scale
        // down: 10 two-input gates (NAND chain) → 60 gate-pin faults,
        // plus 2 per primary input.
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let mut prev = (a, b);
        let mut gates = 0;
        while gates < 10 {
            let g = n.add_gate(GateKind::Nand, &[prev.0, prev.1]).unwrap();
            prev = (prev.1, g);
            gates += 1;
        }
        let faults = universe(&n);
        let gate_pin_faults = faults
            .iter()
            .filter(|f| !matches!(n.gate(f.site.gate).kind(), GateKind::Input))
            .count();
        assert_eq!(gate_pin_faults, 60);
        assert_eq!(faults.len(), 60 + 4);
    }

    #[test]
    fn c17_universe_size() {
        // 6 NAND gates × (2 inputs + 1 output) × 2 + 5 PIs × 2 = 46.
        let faults = universe(&c17());
        assert_eq!(faults.len(), 46);
    }

    #[test]
    fn constants_are_skipped() {
        let mut n = Netlist::new("t");
        let c = n.add_const(true);
        let a = n.add_input("a");
        let g = n.add_gate(GateKind::And, &[a, c]).unwrap();
        n.mark_output(g, "y").unwrap();
        let faults = universe(&n);
        assert!(faults.iter().all(|f| f.site.gate != c));
        // input gate: 2, AND gate: 6
        assert_eq!(faults.len(), 8);
    }

    #[test]
    fn widest_gate_gives_every_pin_its_own_faults() {
        // 256 inputs is the fan-in cap: pins 0..=255 fit `Pin::Input(u8)`,
        // and a 257th pin is refused rather than aliased onto pin 0.
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let g = n.add_gate(GateKind::And, &[a; 256]).unwrap();
        assert!(n.add_gate(GateKind::And, &[a; 257]).is_err());
        let faults = universe(&n);
        let distinct: std::collections::BTreeSet<Fault> = faults.iter().copied().collect();
        assert_eq!(distinct.len(), faults.len());
        let on_g = faults.iter().filter(|f| f.site.gate == g).count();
        assert_eq!(on_g, 2 * 256 + 2);
    }

    #[test]
    fn display_format() {
        let f = Fault::stuck_at_0(PortRef::output(dft_netlist::GateId::from_index(5)));
        assert_eq!(f.to_string(), "g5.out s-a-0");
    }
}
