//! Fault injection during levelized evaluation.

use dft_netlist::{GateKind, Levelization, LevelizeError, Netlist, Pin};
use dft_sim::Logic;

use crate::Fault;

/// A compiled faulty-machine evaluator: the good netlist plus one
/// injectable fault site.
///
/// This is the paper's "faulty machine" of Fig. 1 made executable. The
/// evaluator borrows the good machine's memoized levelization;
/// injection happens inline (an output fault forces the driven word
/// after evaluation, an input-pin fault substitutes one operand of one
/// gate).
#[derive(Debug)]
pub struct FaultyView<'n> {
    netlist: &'n Netlist,
    lv: &'n Levelization,
    storage: Vec<dft_netlist::GateId>,
}

impl<'n> FaultyView<'n> {
    /// Compiles an evaluator for `netlist`.
    ///
    /// # Errors
    ///
    /// Returns [`LevelizeError`] on combinational cycles.
    pub fn new(netlist: &'n Netlist) -> Result<Self, LevelizeError> {
        Ok(FaultyView {
            netlist,
            lv: netlist.levelize()?,
            storage: netlist.storage_elements(),
        })
    }

    /// The underlying netlist.
    #[must_use]
    pub fn netlist(&self) -> &Netlist {
        self.netlist
    }

    /// Storage elements in state-vector order.
    #[must_use]
    pub fn storage(&self) -> &[dft_netlist::GateId] {
        &self.storage
    }

    /// Evaluates one 64-lane block with `fault` injected (or fault-free
    /// when `fault` is `None`), returning packed values for every gate.
    ///
    /// # Panics
    ///
    /// Panics if `pi_words`/`state_words` have the wrong length.
    #[must_use]
    pub fn eval_block(
        &self,
        pi_words: &[u64],
        state_words: &[u64],
        fault: Option<Fault>,
    ) -> Vec<u64> {
        assert_eq!(pi_words.len(), self.netlist.primary_inputs().len());
        assert_eq!(state_words.len(), self.storage.len());
        let mut vals = vec![0u64; self.netlist.gate_count()];
        for (i, &pi) in self.netlist.primary_inputs().iter().enumerate() {
            vals[pi.index()] = pi_words[i];
        }
        for (i, &s) in self.storage.iter().enumerate() {
            vals[s.index()] = state_words[i];
        }
        for (id, gate) in self.netlist.iter() {
            if gate.kind() == GateKind::Const1 {
                vals[id.index()] = u64::MAX;
            }
        }
        // A stuck fault on a *source's* output (PI or DFF output) must be
        // applied before anything reads it.
        if let Some(f) = fault {
            if f.site.pin == Pin::Output && self.netlist.gate(f.site.gate).kind().is_source() {
                vals[f.site.gate.index()] = Self::force(f.stuck);
            }
        }
        for &id in self.lv.order() {
            let gate = self.netlist.gate(id);
            if gate.kind().is_source() {
                continue;
            }
            let word = {
                // Operand gather with the one faulted pin substituted;
                // the per-gate fold itself is the shared
                // `dft_sim::word::fold_word`.
                let operand = |(pin, src): (usize, &dft_netlist::GateId)| -> u64 {
                    match fault {
                        Some(f) if f.site.gate == id && f.site.pin == Pin::Input(pin as u8) => {
                            Self::force(f.stuck)
                        }
                        _ => vals[src.index()],
                    }
                };
                dft_sim::word::fold_word(gate.kind(), gate.inputs().iter().enumerate().map(operand))
            };
            vals[id.index()] = match fault {
                Some(f) if f.site.gate == id && f.site.pin == Pin::Output => Self::force(f.stuck),
                _ => word,
            };
        }
        vals
    }

    /// Three-valued variant of [`FaultyView::eval_block`], used by the
    /// sequential fault simulator where unknown state matters.
    ///
    /// # Panics
    ///
    /// Panics if `pis`/`state` have the wrong length.
    #[must_use]
    pub fn eval_logic(&self, pis: &[Logic], state: &[Logic], fault: Option<Fault>) -> Vec<Logic> {
        assert_eq!(pis.len(), self.netlist.primary_inputs().len());
        assert_eq!(state.len(), self.storage.len());
        let mut vals = vec![Logic::X; self.netlist.gate_count()];
        for (i, &pi) in self.netlist.primary_inputs().iter().enumerate() {
            vals[pi.index()] = pis[i];
        }
        for (i, &s) in self.storage.iter().enumerate() {
            vals[s.index()] = state[i];
        }
        for (id, gate) in self.netlist.iter() {
            match gate.kind() {
                GateKind::Const0 => vals[id.index()] = Logic::Zero,
                GateKind::Const1 => vals[id.index()] = Logic::One,
                _ => {}
            }
        }
        if let Some(f) = fault {
            if f.site.pin == Pin::Output && self.netlist.gate(f.site.gate).kind().is_source() {
                vals[f.site.gate.index()] = Logic::from(f.stuck);
            }
        }
        let mut buf: Vec<Logic> = Vec::with_capacity(8);
        for &id in self.lv.order() {
            let gate = self.netlist.gate(id);
            if gate.kind().is_source() {
                continue;
            }
            buf.clear();
            for (pin, &src) in gate.inputs().iter().enumerate() {
                let v = match fault {
                    Some(f) if f.site.gate == id && f.site.pin == Pin::Input(pin as u8) => {
                        Logic::from(f.stuck)
                    }
                    _ => vals[src.index()],
                };
                buf.push(v);
            }
            let mut out = Logic::eval_gate(gate.kind(), &buf);
            if let Some(f) = fault {
                if f.site.gate == id && f.site.pin == Pin::Output {
                    out = Logic::from(f.stuck);
                }
            }
            vals[id.index()] = out;
        }
        vals
    }

    /// Next-state words implied by a block's values.
    #[must_use]
    pub fn next_state_words(&self, vals: &[u64], fault: Option<Fault>) -> Vec<u64> {
        self.storage
            .iter()
            .map(|&dff| {
                let d = self.netlist.gate(dff).inputs()[0];
                let mut w = vals[d.index()];
                if let Some(f) = fault {
                    // A fault on the DFF's data pin corrupts what is captured.
                    if f.site.gate == dff && f.site.pin == Pin::Input(0) {
                        w = Self::force(f.stuck);
                    }
                }
                w
            })
            .collect()
    }

    /// Three-valued next state implied by frame values (with an optional
    /// fault on a DFF data pin corrupting the capture).
    #[must_use]
    pub fn next_state_logic(&self, vals: &[Logic], fault: Option<Fault>) -> Vec<Logic> {
        self.storage
            .iter()
            .map(|&dff| {
                let d = self.netlist.gate(dff).inputs()[0];
                match fault {
                    Some(f) if f.site.gate == dff && f.site.pin == Pin::Input(0) => {
                        Logic::from(f.stuck)
                    }
                    _ => vals[d.index()],
                }
            })
            .collect()
    }

    fn force(stuck: bool) -> u64 {
        if stuck {
            u64::MAX
        } else {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dft_netlist::{GateId, GateKind, Netlist, PortRef};

    /// The paper's Fig. 1: pattern (A=0, B=1) distinguishes the good AND
    /// gate (C=0) from the machine with A s-a-1 (C=1).
    #[test]
    fn fig1_and_gate_stuck_at_1() {
        let mut n = Netlist::new("fig1");
        let a = n.add_input("A");
        let b = n.add_input("B");
        let c = n.add_gate(GateKind::And, &[a, b]).unwrap();
        n.mark_output(c, "C").unwrap();
        let view = FaultyView::new(&n).unwrap();
        let pi = [0u64, 1u64]; // lane 0: A=0, B=1
        let good = view.eval_block(&pi, &[], None);
        let faulty = view.eval_block(&pi, &[], Some(Fault::stuck_at_1(PortRef::input(c, 0))));
        assert_eq!(good[c.index()] & 1, 0, "good machine outputs 0");
        assert_eq!(faulty[c.index()] & 1, 1, "faulty machine outputs 1");
    }

    #[test]
    fn output_fault_forces_all_lanes() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let g = n.add_gate(GateKind::Not, &[a]).unwrap();
        n.mark_output(g, "y").unwrap();
        let view = FaultyView::new(&n).unwrap();
        let faulty = view.eval_block(&[0xDEAD], &[], Some(Fault::stuck_at_0(PortRef::output(g))));
        assert_eq!(faulty[g.index()], 0);
    }

    #[test]
    fn pi_stem_fault_applies_before_readers() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let g1 = n.add_gate(GateKind::Buf, &[a]).unwrap();
        let g2 = n.add_gate(GateKind::Not, &[a]).unwrap();
        n.mark_output(g1, "y1").unwrap();
        n.mark_output(g2, "y2").unwrap();
        let view = FaultyView::new(&n).unwrap();
        let f = Fault::stuck_at_1(PortRef::output(a));
        let vals = view.eval_block(&[0], &[], Some(f));
        assert_eq!(
            vals[g1.index()],
            u64::MAX,
            "both readers see the stem fault"
        );
        assert_eq!(vals[g2.index()], 0);
    }

    #[test]
    fn input_pin_fault_is_local_to_one_reader() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let g1 = n.add_gate(GateKind::Buf, &[a]).unwrap();
        let g2 = n.add_gate(GateKind::Buf, &[a]).unwrap();
        let view = FaultyView::new(&n).unwrap();
        let f = Fault::stuck_at_1(PortRef::input(g1, 0));
        let vals = view.eval_block(&[0], &[], Some(f));
        assert_eq!(vals[g1.index()], u64::MAX, "faulted reader sees 1");
        assert_eq!(vals[g2.index()], 0, "sibling reader sees the true net");
    }

    #[test]
    fn logic_eval_agrees_with_word_eval() {
        let n = dft_netlist::circuits::c17();
        let view = FaultyView::new(&n).unwrap();
        let faults = crate::universe(&n);
        for v in 0..32u64 {
            let pi_words: Vec<u64> = (0..5)
                .map(|i| if v >> i & 1 == 1 { u64::MAX } else { 0 })
                .collect();
            let pis: Vec<Logic> = (0..5).map(|i| Logic::from(v >> i & 1 == 1)).collect();
            for &f in faults.iter().take(12) {
                let w = view.eval_block(&pi_words, &[], Some(f));
                let l = view.eval_logic(&pis, &[], Some(f));
                for id in n.ids() {
                    assert_eq!(
                        Some(w[id.index()] & 1 == 1),
                        l[id.index()].to_bool(),
                        "gate {id} fault {f} input {v:05b}"
                    );
                }
            }
        }
    }

    #[test]
    fn constants_evaluate_in_both_domains() {
        let mut n = Netlist::new("t");
        let one = n.add_const(true);
        let a = n.add_input("a");
        let y = n.add_gate(GateKind::And, &[one, a]).unwrap();
        n.mark_output(y, "y").unwrap();
        let view = FaultyView::new(&n).unwrap();
        let w = view.eval_block(&[u64::MAX], &[], None);
        assert_eq!(w[y.index()], u64::MAX, "const-1 must drive the AND");
        let l = view.eval_logic(&[Logic::One], &[], None);
        assert_eq!(l[y.index()], Logic::One);
    }

    #[test]
    fn dff_data_pin_fault_corrupts_capture() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let d = n.add_dff(a).unwrap();
        n.mark_output(d, "q").unwrap();
        let view = FaultyView::new(&n).unwrap();
        let f = Fault::stuck_at_0(PortRef::new(d, dft_netlist::Pin::Input(0)));
        let vals = view.eval_block(&[u64::MAX], &[0], Some(f));
        let ns = view.next_state_words(&vals, Some(f));
        assert_eq!(ns[0], 0, "capture is stuck at 0");
        let good_ns = view.next_state_words(&view.eval_block(&[u64::MAX], &[0], None), None);
        assert_eq!(good_ns[0], u64::MAX);
        let _ = GateId::from_index(0);
    }
}
