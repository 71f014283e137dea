//! FIRE-style static untestability verdicts.
//!
//! A single stuck-at fault needs two things from a test: *excitation*
//! (the activation net driven to the complement of the stuck value in
//! the good machine) and *observation* (a sensitized path carrying the
//! difference to a primary output). The implication engine can refute
//! either statically:
//!
//! * **Unexcitable** — the excitation literal is unsettable (its
//!   propagation contradicts itself, or the net is an uncontrollable
//!   storage output). No assignment excites the fault.
//! * **Unobservable** — in *every* assignment that excites the fault,
//!   each path from the fault site to an output is cut somewhere: a
//!   side input outside the fault's fanout cone is implied to the
//!   gate's controlling value (the gate's output is then identical in
//!   the good and faulty machines), the side input is an uncontrollable
//!   storage output (`X` in both machines, so no *known* difference can
//!   leave the gate), or the path runs into a storage element.
//!
//! Both directions are sound over the combinational test view — every
//! fault flagged here is also `Untestable` for PODEM and the
//! D-algorithm, which is cross-checked by proptests. Neither direction
//! is complete: search still proves redundancies that need case splits
//! rather than implication chains.

use dft_netlist::{GateId, GateKind, Pin};
use dft_sim::Logic;

use crate::engine::{propagate, ImplicationEngine, Prop};

/// Why a fault is statically untestable (the diagnostic witness carried
/// into lint findings and prefilter reports).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UntestableReason {
    /// The activation net can never take the value that excites the
    /// fault.
    Unexcitable {
        /// The net that would need to be driven.
        net: GateId,
        /// The value excitation requires (complement of the stuck
        /// value).
        required: bool,
        /// Where the implication closure contradicted itself while
        /// assuming `net = required` (equal to `net` itself when the
        /// net is an uncontrollable storage output or implied
        /// constant).
        conflict: GateId,
    },
    /// The fault is excitable, but its effect provably cannot reach any
    /// primary output.
    Unobservable {
        /// The gate whose output carries the (unobservable) effect.
        origin: GateId,
    },
}

impl std::fmt::Display for UntestableReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UntestableReason::Unexcitable {
                net,
                required,
                conflict,
            } => {
                if conflict == net {
                    write!(
                        f,
                        "activation net g{} cannot be driven to {}",
                        net.index(),
                        u8::from(*required)
                    )
                } else {
                    write!(
                        f,
                        "assuming g{}={} implies a contradiction at g{}",
                        net.index(),
                        u8::from(*required),
                        conflict.index()
                    )
                }
            }
            UntestableReason::Unobservable { origin } => write!(
                f,
                "every sensitized path from g{} to an output is statically blocked",
                origin.index()
            ),
        }
    }
}

/// Epoch-stamped marks for the observation walk: a net is in the
/// current fault's cone (reached by its effect) iff its `cone` (`reach`)
/// stamp equals `epoch`, so no fault clears anything.
pub(crate) struct Marks {
    cone: Vec<u32>,
    reach: Vec<u32>,
    pub(crate) epoch: u32,
    stack: Vec<GateId>,
    cone_stack: Vec<GateId>,
}

impl Marks {
    fn new(n: usize) -> Self {
        Marks {
            cone: vec![0; n],
            reach: vec![0; n],
            epoch: 0,
            stack: Vec::new(),
            cone_stack: Vec::new(),
        }
    }

    fn begin(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // One lap of the u32 odometer: stale stamps could now collide.
            self.cone.fill(0);
            self.reach.fill(0);
            self.epoch = 1;
        }
        self.stack.clear();
    }
}

/// Scratch for one verdict batch, reused across its literals and faults.
pub(crate) struct VerdictScratch {
    pub(crate) prop: Prop,
    pub(crate) marks: Marks,
}

impl VerdictScratch {
    pub(crate) fn new(n: usize) -> Self {
        VerdictScratch {
            prop: Prop::new(n),
            marks: Marks::new(n),
        }
    }
}

impl ImplicationEngine<'_> {
    /// Statically decides whether the stuck-at-`stuck` fault at
    /// `(gate, pin)` is untestable. `None` means "not provably
    /// untestable" — search may still refute it.
    ///
    /// The batch of one: see [`ImplicationEngine::faults_untestable`].
    #[must_use]
    pub fn fault_untestable(
        &self,
        gate: GateId,
        pin: Pin,
        stuck: bool,
    ) -> Option<UntestableReason> {
        self.faults_untestable(&[(gate, pin, stuck)])
            .pop()
            .flatten()
    }

    /// [`ImplicationEngine::fault_untestable`] for every `(gate, pin,
    /// stuck)` fault of `faults`, aligned with it.
    ///
    /// Faults are grouped by excitation literal (activation net, ¬stuck):
    /// one propagation decides excitation for the whole group and leaves
    /// the implied values every member's observation walk reads, so a
    /// fault list costs one propagation per distinct literal rather than
    /// one per fault. Scratch is allocated once per call.
    ///
    /// # Panics
    ///
    /// Panics if a fault names a gate outside the netlist or a pin
    /// beyond its gate's fan-in.
    #[must_use]
    pub fn faults_untestable(
        &self,
        faults: &[(GateId, Pin, bool)],
    ) -> Vec<Option<UntestableReason>> {
        let mut scratch = VerdictScratch::new(self.netlist().gate_count());
        self.verdicts_with(faults, &mut scratch)
    }

    pub(crate) fn verdicts_with(
        &self,
        faults: &[(GateId, Pin, bool)],
        scratch: &mut VerdictScratch,
    ) -> Vec<Option<UntestableReason>> {
        let lits: Vec<usize> = faults
            .iter()
            .map(|&(gate, pin, stuck)| self.activation(gate, pin).index() * 2 + usize::from(!stuck))
            .collect();
        let mut order: Vec<usize> = (0..faults.len()).collect();
        order.sort_by_key(|&i| lits[i]);
        let mut verdicts = vec![None; faults.len()];
        for group in order.chunk_by(|&a, &b| lits[a] == lits[b]) {
            let lit = lits[group[0]];
            let excited = self.excite(GateId::from_index(lit / 2), lit % 2 == 1, &mut scratch.prop);
            for &i in group {
                let (gate, pin, _) = faults[i];
                verdicts[i] = match excited {
                    Err(reason) => Some(reason),
                    Ok(()) => self.observation_verdict(gate, pin, scratch),
                };
            }
        }
        verdicts
    }

    /// The net a fault at `(gate, pin)` needs driven to excite it.
    fn activation(&self, gate: GateId, pin: Pin) -> GateId {
        match pin {
            Pin::Output => gate,
            Pin::Input(p) => self.netlist().gate(gate).inputs()[p as usize],
        }
    }

    /// Propagates the excitation assumption `net = required`, leaving
    /// its implied values in `prop`, or returns why excitation is
    /// impossible.
    fn excite(&self, net: GateId, required: bool, prop: &mut Prop) -> Result<(), UntestableReason> {
        let outcome = propagate(&self.ctx(), prop, &[(net.index() as u32, required)]);
        let conflict = match outcome {
            Err(conflict) => conflict,
            // Unsettable, yet the closure no longer contradicts itself:
            // storage outputs and implied constants conflict at the net.
            Ok(()) if self.is_unsettable(net, required) => net,
            Ok(()) => return Ok(()),
        };
        Err(UntestableReason::Unexcitable {
            net,
            required,
            conflict,
        })
    }

    /// The observation half of a verdict, under the implied values the
    /// excitation propagation left in `scratch.prop`.
    fn observation_verdict(
        &self,
        gate: GateId,
        pin: Pin,
        scratch: &mut VerdictScratch,
    ) -> Option<UntestableReason> {
        let value = |i: usize| scratch.prop.get(&self.fixed, i);
        let blocked_at_pin = match pin {
            Pin::Output => false,
            Pin::Input(p) => {
                // The effect lives on one pin wire: it must first pass
                // `gate` itself. Side pins read the *unfaulted* nets, so
                // they are "outside the cone" by construction (the
                // netlist is acyclic), including other pins fed by the
                // activation net.
                let reader = self.netlist().gate(gate);
                reader.kind().is_storage()
                    || (0..reader.fanin())
                        .filter(|&q| q != p as usize)
                        .any(|q| self.side_blocks(reader.kind(), reader.inputs()[q], value))
            }
        };
        let unobservable =
            blocked_at_pin || self.unobservable_from(gate, &scratch.prop, &mut scratch.marks);
        unobservable.then_some(UntestableReason::Unobservable { origin: gate })
    }

    /// Whether a side input provably kills fault-effect passage through
    /// a gate of `kind`: implied to the controlling value (output equal
    /// in both machines), or an uncontrollable storage output (`X` in
    /// both machines — no *known* difference can emerge, and the
    /// combinational test view requires one).
    fn side_blocks(&self, kind: GateKind, side: GateId, value: impl Fn(usize) -> Logic) -> bool {
        if self.netlist().gate(side).kind().is_storage() {
            return true;
        }
        match kind.controlling_value() {
            Some(c) => value(side.index()) == Logic::from(c),
            None => false,
        }
    }

    /// Walks the fanout cone of `origin`: can the fault effect possibly
    /// reach a primary output, given the values implied by the
    /// excitation assumption? Conservative in the sound direction —
    /// `true` only when every path is provably cut.
    fn unobservable_from(&self, origin: GateId, prop: &Prop, marks: &mut Marks) -> bool {
        let value = |i: usize| prop.get(&self.fixed, i);
        marks.begin();
        let epoch = marks.epoch;
        // The structural cone the effect could live in is only consulted
        // for side inputs that would block, so it is built on first need.
        let mut cone_built = false;
        marks.reach[origin.index()] = epoch;
        marks.stack.push(origin);
        while let Some(g) = marks.stack.pop() {
            if self.is_po[g.index()] {
                return false;
            }
            for &(reader, _) in &self.fanout[g.index()] {
                let r = reader.index();
                if marks.reach[r] == epoch {
                    continue;
                }
                let gate = self.netlist().gate(reader);
                if gate.kind().is_storage() {
                    continue;
                }
                let blocked = gate.inputs().iter().any(|&s| {
                    self.side_blocks(gate.kind(), s, value)
                        && !self.in_cone(origin, s, marks, &mut cone_built)
                });
                if blocked {
                    continue;
                }
                marks.reach[r] = epoch;
                marks.stack.push(reader);
            }
        }
        true
    }

    /// Whether `net` lies in the structural fanout cone of `origin`
    /// (effects die at storage elements in the combinational view).
    /// Side inputs from inside the cone may themselves carry the effect,
    /// so only out-of-cone side values can block. The cone is stamped
    /// into `marks` under the current epoch the first time it is asked
    /// for.
    fn in_cone(&self, origin: GateId, net: GateId, marks: &mut Marks, built: &mut bool) -> bool {
        let epoch = marks.epoch;
        if !*built {
            *built = true;
            marks.cone[origin.index()] = epoch;
            marks.cone_stack.push(origin);
            while let Some(g) = marks.cone_stack.pop() {
                for &(reader, _) in &self.fanout[g.index()] {
                    let r = reader.index();
                    if marks.cone[r] != epoch && !self.netlist().gate(reader).kind().is_storage() {
                        marks.cone[r] = epoch;
                        marks.cone_stack.push(reader);
                    }
                }
            }
        }
        marks.cone[net.index()] == epoch
    }

    /// The per-fault verdict path before batching: a fresh propagation
    /// and fresh value map and marks for every fault. Kept as the oracle
    /// the batch is checked against.
    #[cfg(test)]
    pub(crate) fn fault_untestable_reference(
        &self,
        gate: GateId,
        pin: Pin,
        stuck: bool,
    ) -> Option<UntestableReason> {
        let required = !stuck;
        let net = self.activation(gate, pin);
        let vals = if self.is_unsettable(net, required) {
            let conflict = self.query(net, required).conflict.unwrap_or(net);
            return Some(UntestableReason::Unexcitable {
                net,
                required,
                conflict,
            });
        } else {
            match self.query_values(net, required) {
                Ok(vals) => vals,
                Err(conflict) => {
                    return Some(UntestableReason::Unexcitable {
                        net,
                        required,
                        conflict,
                    })
                }
            }
        };
        if let Pin::Input(p) = pin {
            let reader = self.netlist().gate(gate);
            if reader.kind().is_storage()
                || (0..reader.fanin())
                    .filter(|&q| q != p as usize)
                    .any(|q| self.side_blocks(reader.kind(), reader.inputs()[q], |i| vals[i]))
            {
                return Some(UntestableReason::Unobservable { origin: gate });
            }
        }
        let n = self.netlist().gate_count();
        let mut cone = vec![false; n];
        cone[gate.index()] = true;
        let mut stack = vec![gate];
        while let Some(g) = stack.pop() {
            for &(reader, _) in &self.fanout[g.index()] {
                let r = reader.index();
                if !cone[r] && !self.netlist().gate(reader).kind().is_storage() {
                    cone[r] = true;
                    stack.push(reader);
                }
            }
        }
        let mut reach = vec![false; n];
        reach[gate.index()] = true;
        let mut stack = vec![gate];
        while let Some(g) = stack.pop() {
            if self.is_po[g.index()] {
                return None;
            }
            for &(reader, _) in &self.fanout[g.index()] {
                let r = reader.index();
                if reach[r] {
                    continue;
                }
                let rg = self.netlist().gate(reader);
                if rg.kind().is_storage() {
                    continue;
                }
                if rg
                    .inputs()
                    .iter()
                    .any(|&s| !cone[s.index()] && self.side_blocks(rg.kind(), s, |i| vals[i]))
                {
                    continue;
                }
                reach[r] = true;
                stack.push(reader);
            }
        }
        Some(UntestableReason::Unobservable { origin: gate })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dft_netlist::circuits::{random_combinational, random_sequential, redundant_fixture};
    use dft_netlist::{GateKind, Netlist};
    use proptest::prelude::*;

    /// Every single stuck-at fault of `n`, sources and storage included.
    fn all_faults(n: &Netlist) -> Vec<(GateId, Pin, bool)> {
        let mut out = Vec::new();
        for (id, gate) in n.iter() {
            for stuck in [false, true] {
                out.push((id, Pin::Output, stuck));
                for p in 0..gate.fanin() {
                    out.push((id, Pin::Input(p as u8), stuck));
                }
            }
        }
        out
    }

    fn reference(
        e: &ImplicationEngine<'_>,
        faults: &[(GateId, Pin, bool)],
    ) -> Vec<Option<UntestableReason>> {
        faults
            .iter()
            .map(|&(g, p, s)| e.fault_untestable_reference(g, p, s))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn batched_verdicts_equal_the_per_fault_path(
            seed in any::<u64>(),
            inputs in 2usize..=8,
            gates in 4usize..=80,
            sequential in any::<bool>(),
        ) {
            let n = if sequential {
                random_sequential(inputs.min(4), 2, gates / 8 + 1, 2, seed)
            } else {
                random_combinational(inputs, gates, seed)
            };
            let e = ImplicationEngine::new(&n);
            let faults = all_faults(&n);
            prop_assert_eq!(e.faults_untestable(&faults), reference(&e, &faults));
            // In any order: the grouping must not leak into the answers.
            let reversed: Vec<_> = faults.iter().rev().copied().collect();
            prop_assert_eq!(e.faults_untestable(&reversed), reference(&e, &reversed));
        }
    }

    #[test]
    fn epoch_counters_wrap_without_stale_marks() {
        for n in [redundant_fixture(), random_combinational(8, 60, 3)] {
            let e = ImplicationEngine::new(&n);
            let faults = all_faults(&n);
            let want = reference(&e, &faults);
            // Every stamp holds epoch 1, as if left from the start of the
            // previous lap, and both odometers are one step from wrapping:
            // the batch crosses zero on its second propagation and walk,
            // and any stale stamp that survived would be misread.
            let mut scratch = VerdictScratch::new(n.gate_count());
            scratch.prop.stale_lap();
            scratch.marks.cone.fill(1);
            scratch.marks.reach.fill(1);
            scratch.marks.epoch = u32::MAX;
            let got = e.verdicts_with(&faults, &mut scratch);
            assert!(scratch.marks.epoch < 1_000, "the marks epoch wrapped");
            assert!(scratch.prop.epoch < 1_000, "the propagation epoch wrapped");
            assert_eq!(got, want, "{}", n.name());
        }
    }

    #[test]
    fn unexcitable_constant_net() {
        // z = AND(a, NOT a): s-a-0 at z needs z = 1 — impossible.
        let mut n = Netlist::new("const");
        let a = n.add_input("a");
        let na = n.add_gate(GateKind::Not, &[a]).unwrap();
        let z = n.add_gate(GateKind::And, &[a, na]).unwrap();
        n.mark_output(z, "z").unwrap();
        let e = ImplicationEngine::new(&n);
        let r = e.fault_untestable(z, Pin::Output, false);
        assert!(matches!(r, Some(UntestableReason::Unexcitable { .. })));
        // s-a-1 needs z = 0 — always true, so it is excitable but the
        // effect never differs... which static analysis sees as
        // unobservable only through masking; here z is the output, so
        // it IS observable (good 0, faulty 1 at the PO directly).
        assert_eq!(e.fault_untestable(z, Pin::Output, true), None);
    }

    #[test]
    fn dangling_gate_is_unobservable() {
        let mut n = Netlist::new("dangling");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let y = n.add_gate(GateKind::And, &[a, b]).unwrap();
        let _dead = n.add_gate(GateKind::Or, &[a, b]).unwrap();
        n.mark_output(y, "y").unwrap();
        let e = ImplicationEngine::new(&n);
        let r = e.fault_untestable(_dead, Pin::Output, false);
        assert!(matches!(r, Some(UntestableReason::Unobservable { .. })));
    }

    #[test]
    fn state_side_input_blocks_observation() {
        // y = AND(a, dff): the a-pin fault needs the uncontrollable
        // state at 1 to pass — the paper's motivation for scan.
        let mut n = Netlist::new("seq");
        let a = n.add_input("a");
        let d = n.add_dff(a).unwrap();
        let y = n.add_gate(GateKind::And, &[a, d]).unwrap();
        n.mark_output(y, "y").unwrap();
        let e = ImplicationEngine::new(&n);
        let r = e.fault_untestable(y, Pin::Input(0), false);
        assert!(matches!(r, Some(UntestableReason::Unobservable { .. })));
        // The stem s-a-0 needs y = 1, i.e. the state at 1: unexcitable.
        let r = e.fault_untestable(y, Pin::Output, false);
        assert!(matches!(r, Some(UntestableReason::Unexcitable { .. })));
        // The stem s-a-1 is excited by a = 0 and y is the output itself.
        assert_eq!(e.fault_untestable(y, Pin::Output, true), None);
    }

    #[test]
    fn implied_controlling_side_blocks_observation() {
        // na = NOT a; z = AND(a, na) (constant 0); live = OR(a, b);
        // y = AND(live, z). Every fault on `live` is masked: its only
        // reader ANDs it with the implied-0 net z.
        let mut n = Netlist::new("masked");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let na = n.add_gate(GateKind::Not, &[a]).unwrap();
        let z = n.add_gate(GateKind::And, &[a, na]).unwrap();
        let live = n.add_gate(GateKind::Or, &[a, b]).unwrap();
        let y = n.add_gate(GateKind::And, &[live, z]).unwrap();
        n.mark_output(y, "y").unwrap();
        let e = ImplicationEngine::new(&n);
        for stuck in [false, true] {
            assert!(
                matches!(
                    e.fault_untestable(live, Pin::Output, stuck),
                    Some(UntestableReason::Unobservable { .. })
                ),
                "live s-a-{} must be statically unobservable",
                u8::from(stuck)
            );
        }
        // Faults on z's excitable polarity reach the PO: z s-a-1 is
        // excited by z = 0 (always) and observed when live = 1.
        assert_eq!(e.fault_untestable(z, Pin::Output, true), None);
    }

    #[test]
    fn testable_faults_pass_the_filter_on_c17() {
        let n = dft_netlist::circuits::c17();
        let e = ImplicationEngine::new(&n);
        for (id, gate) in n.iter() {
            for stuck in [false, true] {
                assert_eq!(
                    e.fault_untestable(id, Pin::Output, stuck),
                    None,
                    "c17 is fully testable"
                );
                for p in 0..gate.fanin() {
                    assert_eq!(
                        e.fault_untestable(id, Pin::Input(p as u8), stuck),
                        None,
                        "c17 is fully testable"
                    );
                }
            }
        }
    }
}
