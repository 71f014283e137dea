//! Degating: logical partitioning through blocking gates (Figs. 2–3).

use dft_netlist::{GateId, GateKind, LevelizeError, Netlist};

use crate::names::{fresh_indexed_input, fresh_input};

/// A netlist with degating hardware inserted on selected nets.
///
/// Per the paper's Fig. 2: each degated net feeds an AND with the
/// (inverted) degate line; an OR merges in a per-net control line. With
/// the degate line at its blocking value, the control lines drive the
/// downstream modules directly, giving "complete controllability of the
/// inputs to Modules 2 and 3".
#[derive(Clone, Debug)]
pub struct Degated {
    netlist: Netlist,
    degate: GateId,
    controls: Vec<GateId>,
    extra_gates: usize,
}

impl Degated {
    /// The modified netlist.
    #[must_use]
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// The degate line (primary input; 1 = block).
    #[must_use]
    pub fn degate_line(&self) -> GateId {
        self.degate
    }

    /// Per-degated-net control inputs.
    #[must_use]
    pub fn control_lines(&self) -> &[GateId] {
        &self.controls
    }

    /// Gates added by the transform.
    #[must_use]
    pub fn extra_gates(&self) -> usize {
        self.extra_gates
    }
}

/// Inserts degating logic on `nets`.
///
/// # Errors
///
/// Returns [`LevelizeError`] if the source netlist has combinational
/// cycles.
///
/// # Panics
///
/// Panics if a net id is foreign to `netlist`.
pub fn insert_degating(netlist: &Netlist, nets: &[GateId]) -> Result<Degated, LevelizeError> {
    netlist.levelize()?;
    let mut out = netlist.clone();
    out.set_name(format!("{}_degated", netlist.name()));
    let before = out.gate_count();
    let fanout = netlist.topology().readers();
    let degate = fresh_input(&mut out, "degate");
    let degate_n = out.add_gate(GateKind::Not, &[degate]).expect("valid");
    let mut controls = Vec::with_capacity(nets.len());
    let mut ctl_index = 0usize;
    for &net in nets {
        assert!(net.index() < before, "degated net out of range");
        let ctl = fresh_indexed_input(&mut out, "control", &mut ctl_index);
        controls.push(ctl);
        let blocked = out
            .add_gate(GateKind::And, &[net, degate_n])
            .expect("valid");
        let merged = out.add_gate(GateKind::Or, &[blocked, ctl]).expect("valid");
        for &(reader, pin) in &fanout[net.index()] {
            out.reconnect_input(reader, pin as usize, merged)
                .expect("valid pin");
        }
    }
    let extra_gates = out.logic_gate_count() - netlist.logic_gate_count();
    Ok(Degated {
        netlist: out,
        degate,
        controls,
        extra_gates,
    })
}

/// The Fig. 3 special case: a free-running oscillator (modelled as an
/// uncontrollable toggling flip-flop) gated so the tester's pseudo-clock
/// line can replace it for synchronized dc testing.
///
/// Returns the modified netlist and the pseudo-clock input. The
/// oscillator net (`osc`) keeps running; with `degate` = 1 downstream
/// logic sees the pseudo-clock instead.
///
/// # Errors
///
/// Returns [`LevelizeError`] on combinational cycles.
pub fn block_oscillator(
    netlist: &Netlist,
    osc: GateId,
) -> Result<(Degated, GateId), LevelizeError> {
    let degated = insert_degating(netlist, &[osc])?;
    let pseudo_clock = degated.controls[0];
    Ok((degated, pseudo_clock))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dft_fault::{universe, Fault};
    use dft_sim::{Logic, ThreeValueSim};

    /// A "module 1 drives modules 2 and 3" board: module 1's output is an
    /// uncontrollable mess (here: an XOR of state), modules 2/3 hang off
    /// it.
    fn board() -> (Netlist, GateId) {
        let mut n = Netlist::new("board");
        let x = n.add_input("x");
        // Module 1: toggling flip-flop (uncontrollable without reset).
        let placeholder = n.add_const(false);
        let q = n.add_dff(placeholder).unwrap();
        let inv = n.add_gate(GateKind::Not, &[q]).unwrap();
        n.reconnect_input(q, 0, inv).unwrap();
        // Modules 2/3 consume the module-1 net.
        let m2 = n.add_gate(GateKind::And, &[q, x]).unwrap();
        let m3 = n.add_gate(GateKind::Or, &[q, x]).unwrap();
        n.mark_output(m2, "y2").unwrap();
        n.mark_output(m3, "y3").unwrap();
        (n, q)
    }

    #[test]
    fn degating_gives_direct_control() {
        let (n, q) = board();
        let d = insert_degating(&n, &[q]).unwrap();
        let sim = ThreeValueSim::new(d.netlist()).unwrap();
        // Inputs: x, degate, control0 (order of addition).
        // degate = 1, control = 1: modules see 1 regardless of the
        // unknown oscillator state.
        let vals = sim.eval(&[Logic::One, Logic::One, Logic::One], &[Logic::X]);
        let outs = sim.outputs(&vals);
        assert_eq!(outs, vec![Logic::One, Logic::One]);
        // degate = 1, control = 0: modules see 0.
        let vals = sim.eval(&[Logic::One, Logic::One, Logic::Zero], &[Logic::X]);
        let outs = sim.outputs(&vals);
        assert_eq!(outs, vec![Logic::Zero, Logic::One]);
        // Functional mode (degate = 0, control = 0) passes the net through.
        let vals = sim.eval(&[Logic::One, Logic::Zero, Logic::Zero], &[Logic::One]);
        let outs = sim.outputs(&vals);
        assert_eq!(outs, vec![Logic::One, Logic::One]);
        assert_eq!(d.extra_gates(), 3); // NOT + AND + OR
    }

    #[test]
    fn degating_improves_fault_coverage() {
        let (n, q) = board();
        // Without degating: faults needing q controlled are untestable
        // combinationally (q is unresettable state).
        let m2_pin_fault = {
            let m2 = n.find_output("y2").unwrap();
            Fault::stuck_at_1(dft_netlist::PortRef::input(m2, 1))
        };
        // x s-a-1 at module 2's pin: needs q = 1 to propagate.
        let seq = dft_fault::sequential(&n, &vec![vec![Logic::Zero]; 6], &[m2_pin_fault]).unwrap();
        assert_eq!(seq.detected_count(), 0, "uncontrollable without DFT");

        let d = insert_degating(&n, &[q]).unwrap();
        // With degate=1, control=1 and x toggling, the fault is exposed:
        // y2 = AND(1, x): x pin s-a-1 detected at x=0.
        let viewed_fault = Fault::stuck_at_1(dft_netlist::PortRef::input(
            d.netlist().find_output("y2").unwrap(),
            1,
        ));
        let seq = dft_fault::sequential(
            d.netlist(),
            &[vec![Logic::Zero, Logic::One, Logic::One]], // x=0, degate, control
            &[viewed_fault],
        )
        .unwrap();
        assert_eq!(seq.detected_count(), 1, "degating exposes the fault");
    }

    #[test]
    fn oscillator_block_synchronizes_testing() {
        let (n, q) = board();
        let (d, pseudo_clock) = block_oscillator(&n, q).unwrap();
        assert_eq!(pseudo_clock, d.control_lines()[0]);
        // The tester can now hold the "clock" net still.
        let sim = ThreeValueSim::new(d.netlist()).unwrap();
        let vals = sim.eval(&[Logic::Zero, Logic::One, Logic::Zero], &[Logic::X]);
        assert!(sim.outputs(&vals).iter().all(|v| v.is_known()));
    }

    #[test]
    fn fault_universe_grows_by_the_degating_hardware_only() {
        let (n, q) = board();
        let d = insert_degating(&n, &[q]).unwrap();
        let before = universe(&n).len();
        let after = universe(d.netlist()).len();
        assert!(after > before);
        // Degating hardware: degate PI (2), NOT (4), AND (6), OR (6),
        // control PI (2) = 20 extra fault sites.
        assert_eq!(after - before, 20, "bounded overhead in fault count");
    }
}
