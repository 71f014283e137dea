//! Combinational test-view extraction — the central payoff of scan.
//!
//! "Given that an LSSD structure is achieved … the network can now be
//! thought of as purely combinational, where tests are applied via
//! primary inputs and shift-register outputs." This module performs that
//! reduction: every storage element's output becomes a pseudo primary
//! input, every storage element's data input becomes a pseudo primary
//! output, and faults map both ways.

use std::collections::HashMap;

use dft_fault::Fault;
use dft_netlist::{GateId, GateKind, LevelizeError, Netlist, Pin, PortRef};

/// A combinational test view of a sequential netlist.
///
/// The view's primary inputs are the original PIs followed by one pseudo
/// input per storage element (`ppi<k>`); its primary outputs are the
/// original POs followed by one pseudo output per storage element
/// (`ppo<k>`, a buffer on the old data input). ATPG and fault simulation
/// run on the view; [`TestView::fault_to_view`] and
/// [`TestView::fault_to_original`] translate fault sites.
///
/// ```
/// use dft_netlist::circuits::binary_counter;
/// use dft_scan::extract_test_view;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let counter = binary_counter(4);
/// let view = extract_test_view(&counter)?;
/// assert!(view.netlist().is_combinational());
/// // 1 real PI + 4 pseudo inputs; 4 real POs + 4 pseudo outputs.
/// assert_eq!(view.netlist().primary_inputs().len(), 5);
/// assert_eq!(view.netlist().primary_outputs().len(), 8);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct TestView {
    view: Netlist,
    /// Original gate id → view gate id (storage maps to its pseudo-PI).
    to_view: Vec<GateId>,
    /// View gate id → original gate id (pseudo gates map to the DFF).
    to_orig: HashMap<GateId, GateId>,
    /// Per storage element: (pseudo-PI view id, ppo buffer view id).
    pseudo: Vec<(GateId, GateId)>,
    original_pi_count: usize,
}

/// Extracts the combinational test view of `netlist`.
///
/// # Errors
///
/// Returns [`LevelizeError`] if the combinational frame has a cycle.
pub fn extract_test_view(netlist: &Netlist) -> Result<TestView, LevelizeError> {
    netlist.levelize()?;
    let storage = netlist.storage_elements();
    let mut view = Netlist::new(format!("{}_testview", netlist.name()));
    let mut to_view: Vec<GateId> = Vec::with_capacity(netlist.gate_count());
    let mut to_orig: HashMap<GateId, GateId> = HashMap::new();

    // Original PIs first (same order), then pseudo-PIs for storage.
    let mut storage_ppi: HashMap<GateId, GateId> = HashMap::new();
    for &pi in netlist.primary_inputs() {
        // placeholder; filled in the arena walk below
        let _ = pi;
    }

    // Walk the arena in order, translating each gate. Storage becomes a
    // pseudo input. (Arena order guarantees drivers precede readers
    // except for storage feedback, which the pseudo-PI breaks.)
    //
    // Two passes: first create all gates with placeholder inputs, then
    // rewire — storage feedback may reference later gates.
    for (id, gate) in netlist.iter() {
        let vid = match gate.kind() {
            GateKind::Input => view
                .try_add_input(gate.name().unwrap_or("pi"))
                .expect("unique names copied from a valid netlist"),
            GateKind::Dff => {
                let k = storage_ppi.len();
                let ppi = view
                    .try_add_input(format!("ppi{k}"))
                    .expect("pseudo input names are fresh");
                storage_ppi.insert(id, ppi);
                ppi
            }
            GateKind::Const0 | GateKind::Const1 => view.add_const(gate.kind() == GateKind::Const1),
            kind => {
                let placeholder: Vec<GateId> = gate
                    .inputs()
                    .iter()
                    .map(|_| GateId::from_index(0))
                    .collect();
                view.add_named_gate(kind, &placeholder, gate.name())
                    .expect("arity preserved")
            }
        };
        to_view.push(vid);
        to_orig.insert(vid, id);
    }

    // Rewire real inputs.
    for (id, gate) in netlist.iter() {
        if matches!(
            gate.kind(),
            GateKind::Input | GateKind::Dff | GateKind::Const0 | GateKind::Const1
        ) {
            continue;
        }
        let vid = to_view[id.index()];
        for (pin, &src) in gate.inputs().iter().enumerate() {
            view.reconnect_input(vid, pin, to_view[src.index()])
                .expect("translated ids are valid");
        }
    }

    // Original POs.
    for (gate, name) in netlist.primary_outputs() {
        view.mark_output(to_view[gate.index()], name.clone())
            .expect("unique names copied from a valid netlist");
    }

    // Pseudo outputs: a buffer on each storage element's data input.
    let mut pseudo = Vec::with_capacity(storage.len());
    for (k, &dff) in storage.iter().enumerate() {
        let d = netlist.gate(dff).inputs()[0];
        let buf = view
            .add_gate(GateKind::Buf, &[to_view[d.index()]])
            .expect("valid");
        view.mark_output(buf, format!("ppo{k}"))
            .expect("pseudo output names are fresh");
        to_orig.insert(buf, dff);
        pseudo.push((storage_ppi[&dff], buf));
    }

    Ok(TestView {
        view,
        to_view,
        to_orig,
        pseudo,
        original_pi_count: netlist.primary_inputs().len(),
    })
}

impl TestView {
    /// The combinational view netlist.
    #[must_use]
    pub fn netlist(&self) -> &Netlist {
        &self.view
    }

    /// Number of original (non-pseudo) primary inputs.
    #[must_use]
    pub fn original_pi_count(&self) -> usize {
        self.original_pi_count
    }

    /// Per storage element (chain order): its pseudo-PI and pseudo-PO
    /// buffer in the view.
    #[must_use]
    pub fn pseudo_ports(&self) -> &[(GateId, GateId)] {
        &self.pseudo
    }

    /// Translates an original-netlist gate id into the view.
    #[must_use]
    pub fn view_gate(&self, original: GateId) -> GateId {
        self.to_view[original.index()]
    }

    /// Translates an original fault into the view.
    ///
    /// Storage faults map onto the pseudo structure: a DFF output fault
    /// becomes the pseudo-PI stem fault; a DFF data-pin fault becomes the
    /// ppo buffer's input-pin fault.
    #[must_use]
    pub fn fault_to_view(&self, fault: Fault) -> Fault {
        let gate = fault.site.gate;
        let vid = self.to_view[gate.index()];
        // Is this a storage element?
        if let Some(k) = self.pseudo.iter().position(|&(ppi, _)| ppi == vid) {
            let (ppi, ppo_buf) = self.pseudo[k];
            return match fault.site.pin {
                Pin::Output => Fault {
                    site: PortRef::output(ppi),
                    stuck: fault.stuck,
                },
                Pin::Input(_) => Fault {
                    site: PortRef::input(ppo_buf, 0),
                    stuck: fault.stuck,
                },
            };
        }
        Fault {
            site: PortRef {
                gate: vid,
                pin: fault.site.pin,
            },
            stuck: fault.stuck,
        }
    }

    /// Translates a view fault back to the original netlist, or `None`
    /// for faults on pseudo hardware with no original counterpart.
    #[must_use]
    pub fn fault_to_original(&self, fault: Fault) -> Option<Fault> {
        let orig = *self.to_orig.get(&fault.site.gate)?;
        // Pseudo-PI (DFF output) faults and ppo-buffer faults map back to
        // the storage element's pins.
        if let Some(&(ppi, ppo)) = self
            .pseudo
            .iter()
            .find(|&&(p, b)| p == fault.site.gate || b == fault.site.gate)
        {
            let pin = if fault.site.gate == ppi {
                Pin::Output
            } else {
                Pin::Input(0)
            };
            let _ = ppo;
            return Some(Fault {
                site: PortRef { gate: orig, pin },
                stuck: fault.stuck,
            });
        }
        Some(Fault {
            site: PortRef {
                gate: orig,
                pin: fault.site.pin,
            },
            stuck: fault.stuck,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dft_fault::{simulate, universe, FaultyView};
    use dft_netlist::circuits::{binary_counter, random_sequential, shift_register};
    use dft_sim::PatternSet;

    #[test]
    fn view_is_combinational_and_complete() {
        let n = random_sequential(5, 8, 15, 3, 7);
        let view = extract_test_view(&n).unwrap();
        assert!(view.netlist().is_combinational());
        assert_eq!(view.netlist().primary_inputs().len(), 5 + 8);
        assert_eq!(view.netlist().primary_outputs().len(), 3 + 8);
        assert!(view.netlist().levelize().is_ok());
    }

    #[test]
    fn view_frame_semantics_match_original() {
        // One frame of the original machine (given state S, inputs I)
        // must equal the view evaluated at (I, S): outputs match and
        // next-state equals the ppo values.
        let n = binary_counter(4);
        let view = extract_test_view(&n).unwrap();
        let orig = FaultyView::new(&n).unwrap();
        let vnet = view.netlist();
        let vframe = FaultyView::new(vnet).unwrap();
        let word = |b: bool| if b { u64::MAX } else { 0 };

        for state in 0..16u64 {
            for en in [false, true] {
                let st: Vec<u64> = (0..4).map(|i| word(state >> i & 1 == 1)).collect();
                let vals = orig.eval_block(&[word(en)], &st, None);
                let next = orig.next_state_words(&vals, None);

                let mut row = vec![word(en)];
                row.extend(st.iter().copied());
                let vvals = vframe.eval_block(&row, &[], None);
                let view_out = |o: usize| vvals[vnet.primary_outputs()[o].0.index()] & 1;

                // POs (q0..q3) match.
                for (o, &(g, _)) in n.primary_outputs().iter().enumerate() {
                    assert_eq!(
                        vals[g.index()] & 1,
                        view_out(o),
                        "PO {o} at state {state} en {en}"
                    );
                }
                // Next state matches ppo outputs (outputs 4..8).
                for (k, &ns) in next.iter().enumerate() {
                    assert_eq!(view_out(4 + k), ns & 1, "ppo{k} at state {state} en {en}");
                }
            }
        }
    }

    #[test]
    fn fault_mapping_round_trips() {
        let n = shift_register(3);
        let view = extract_test_view(&n).unwrap();
        for f in universe(&n) {
            let vf = view.fault_to_view(f);
            let back = view.fault_to_original(vf).expect("mapped faults return");
            assert_eq!(back, f, "round trip for {f}");
        }
    }

    #[test]
    fn storage_faults_are_testable_in_the_view() {
        // In the raw sequential counter, deep state faults defeat
        // combinational ATPG; in the view every fault has direct access.
        let n = binary_counter(4);
        let view = extract_test_view(&n).unwrap();
        let faults: Vec<_> = universe(&n)
            .iter()
            .map(|&f| view.fault_to_view(f))
            .collect();
        let k = view.netlist().primary_inputs().len();
        let rows: Vec<Vec<bool>> = (0..1usize << k)
            .map(|v| (0..k).map(|i| v >> i & 1 == 1).collect())
            .collect();
        let p = PatternSet::from_rows(k, &rows);
        let r = simulate(view.netlist(), &p, &faults).unwrap();
        assert_eq!(
            r.coverage(),
            1.0,
            "undetected in view: {:?}",
            r.undetected()
        );
    }
}
