//! Test points: extra pins for controllability and observability
//! (§III-B, Fig. 4), selected by testability analysis (§II).

use dft_netlist::{GateId, GateKind, LevelizeError, Netlist};
use dft_testability::analyze;

use crate::names::{fresh_indexed_input, fresh_indexed_output, fresh_input};

/// A plan of observation and control points.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TestPointPlan {
    /// Nets to expose as extra primary outputs.
    pub observe: Vec<GateId>,
    /// Nets to make externally drivable (via a test-mode multiplexer).
    pub control: Vec<GateId>,
}

impl TestPointPlan {
    /// Total pins the plan costs (one per observation, one per control,
    /// plus the shared test-enable).
    #[must_use]
    pub fn pin_cost(&self) -> usize {
        let ctl_enable = usize::from(!self.control.is_empty());
        self.observe.len() + self.control.len() + ctl_enable
    }
}

/// Selects the `k_observe` hardest-to-observe and `k_control`
/// hardest-to-control nets as test-point candidates — "test points may be
/// added at critical points which are not observable or which are not
/// controllable" (§II).
///
/// Primary inputs/outputs and constants are excluded (they already have
/// pins).
///
/// # Errors
///
/// Returns [`LevelizeError`] on combinational cycles.
pub fn select_test_points(
    netlist: &Netlist,
    k_observe: usize,
    k_control: usize,
) -> Result<TestPointPlan, LevelizeError> {
    let report = analyze(netlist)?;
    let eligible = |id: GateId| {
        let g = netlist.gate(id);
        !matches!(
            g.kind(),
            GateKind::Input | GateKind::Const0 | GateKind::Const1
        ) && !netlist.primary_outputs().iter().any(|&(o, _)| o == id)
    };
    let observe: Vec<GateId> = report
        .hardest_to_observe(netlist.gate_count())
        .into_iter()
        .filter(|&id| eligible(id))
        .take(k_observe)
        .collect();
    let control: Vec<GateId> = report
        .hardest_to_control(netlist.gate_count())
        .into_iter()
        .filter(|&id| eligible(id))
        .take(k_control)
        .collect();
    Ok(TestPointPlan { observe, control })
}

/// Applies a test-point plan: observation nets become primary outputs
/// `tp_obs<i>`; control nets get a test-mode multiplexer (shared enable
/// `tp_en`, per-point value `tp_val<i>`).
///
/// # Errors
///
/// Returns [`LevelizeError`] on combinational cycles.
///
/// # Panics
///
/// Panics if a planned net is foreign to `netlist`.
pub fn apply_test_points(
    netlist: &Netlist,
    plan: &TestPointPlan,
) -> Result<Netlist, LevelizeError> {
    netlist.levelize()?;
    let mut out = netlist.clone();
    out.set_name(format!("{}_tp", netlist.name()));
    let mut obs_index = 0usize;
    for &net in &plan.observe {
        let name = fresh_indexed_output(&out, "tp_obs", &mut obs_index);
        out.mark_output(net, name).expect("fresh test-point names");
    }
    if !plan.control.is_empty() {
        // Marking outputs leaves every reader list as it was.
        let fanout = netlist.topology().readers();
        let en = fresh_input(&mut out, "tp_en");
        let en_n = out.add_gate(GateKind::Not, &[en]).expect("valid");
        let mut val_index = 0usize;
        for &net in &plan.control {
            let val = fresh_indexed_input(&mut out, "tp_val", &mut val_index);
            let keep = out.add_gate(GateKind::And, &[net, en_n]).expect("valid");
            let force = out.add_gate(GateKind::And, &[val, en]).expect("valid");
            let mux = out.add_gate(GateKind::Or, &[keep, force]).expect("valid");
            for &(reader, pin) in &fanout[net.index()] {
                out.reconnect_input(reader, pin as usize, mux)
                    .expect("valid pin");
            }
        }
    }
    Ok(out)
}

/// The decoder control-point scheme of §III-B: "a pin which, in one
/// mode, implies system operation, and in another mode takes N inputs
/// and gates them to a decoder. The 2ᴺ outputs of the decoder are used
/// to control certain nets."
///
/// Controls up to `2ᴺ − 1` nets through `N` address pins plus one mode
/// pin — far cheaper in pins than one mux-value pin per net. Address 0
/// is reserved as "force nothing"; address `k ≥ 1` forces net `k − 1`
/// high while the mode pin is asserted.
///
/// Returns `(netlist, mode pin, address pins)`.
///
/// # Errors
///
/// Returns [`LevelizeError`] on combinational cycles.
///
/// # Panics
///
/// Panics if `nets` is empty, exceeds 2¹⁶ − 1, or references a foreign
/// gate.
pub fn apply_decoder_control(
    netlist: &Netlist,
    nets: &[GateId],
) -> Result<(Netlist, GateId, Vec<GateId>), LevelizeError> {
    netlist.levelize()?;
    assert!(!nets.is_empty(), "need at least one controlled net");
    let address_bits = usize::BITS as usize - (nets.len()).leading_zeros() as usize;
    assert!(address_bits <= 16, "too many controlled nets");

    let mut out = netlist.clone();
    out.set_name(format!("{}_dec_tp", netlist.name()));
    for &net in nets {
        assert!(net.index() < netlist.gate_count(), "net out of range");
    }
    let fanout = netlist.topology().readers();
    let mode = fresh_input(&mut out, "tp_mode");
    let mut addr_index = 0usize;
    let addr: Vec<GateId> = (0..address_bits)
        .map(|_| fresh_indexed_input(&mut out, "tp_addr", &mut addr_index))
        .collect();
    let addr_n: Vec<GateId> = addr
        .iter()
        .map(|&a| out.add_gate(GateKind::Not, &[a]).expect("valid"))
        .collect();

    for (k, &net) in nets.iter().enumerate() {
        let code = k + 1; // address 0 = no forcing
        let mut term: Vec<GateId> = vec![mode];
        for (bit, (&a, &an)) in addr.iter().zip(&addr_n).enumerate() {
            term.push(if code >> bit & 1 == 1 { a } else { an });
        }
        let select = out.add_gate(GateKind::And, &term).expect("valid");
        let forced = out.add_gate(GateKind::Or, &[net, select]).expect("valid");
        for &(reader, pin) in &fanout[net.index()] {
            out.reconnect_input(reader, pin as usize, forced)
                .expect("valid pin");
        }
    }
    Ok((out, mode, addr))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dft_atpg::{generate_tests, AtpgConfig};
    use dft_fault::universe;
    use dft_netlist::circuits::random_combinational;
    use dft_testability::analyze;

    #[test]
    fn selection_avoids_ports_and_constants() {
        let n = random_combinational(8, 60, 17);
        let plan = select_test_points(&n, 4, 4).unwrap();
        assert_eq!(plan.observe.len(), 4);
        assert_eq!(plan.control.len(), 4);
        for &id in plan.observe.iter().chain(&plan.control) {
            assert!(!n.gate(id).kind().is_source());
        }
        assert_eq!(plan.pin_cost(), 9);
    }

    #[test]
    fn observation_points_reduce_total_difficulty() {
        let n = random_combinational(8, 120, 23);
        let before = analyze(&n).unwrap().total_difficulty();
        let plan = select_test_points(&n, 6, 0).unwrap();
        let improved = apply_test_points(&n, &plan).unwrap();
        let after = analyze(&improved).unwrap().total_difficulty();
        assert!(
            after < before,
            "observability pins must lower difficulty ({after} vs {before})"
        );
    }

    #[test]
    fn functional_behaviour_is_preserved_with_enable_low() {
        use dft_sim::{CompiledSim, PatternSet};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let n = random_combinational(6, 40, 29);
        let plan = select_test_points(&n, 2, 2).unwrap();
        let improved = apply_test_points(&n, &plan).unwrap();
        let sim_old = CompiledSim::new(&n).unwrap();
        let sim_new = CompiledSim::new(&improved).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let p_old = PatternSet::random(6, 64, &mut rng);
        let extra = improved.primary_inputs().len() - 6;
        let rows_new: Vec<Vec<bool>> = (0..64)
            .map(|i| {
                let mut r = p_old.get(i);
                r.extend(std::iter::repeat_n(false, extra)); // tp_en = 0
                r
            })
            .collect();
        let p_new = PatternSet::from_rows(6 + extra, &rows_new);
        let r_old = sim_old.run(&p_old);
        let r_new = sim_new.run(&p_new);
        for o in 0..n.primary_outputs().len() {
            for p in 0..64 {
                assert_eq!(r_old.output_bit(o, p), r_new.output_bit(o, p));
            }
        }
    }

    #[test]
    fn decoder_control_forces_addressed_nets() {
        use dft_netlist::{GateKind, Netlist};
        use dft_sim::{Logic, ThreeValueSim};
        // Three hard-to-reach nets behind wide ANDs.
        let mut n = Netlist::new("deep");
        let ins: Vec<_> = (0..6).map(|i| n.add_input(format!("x{i}"))).collect();
        let hard: Vec<_> = (0..3)
            .map(|k| {
                n.add_gate(GateKind::And, &[ins[k], ins[k + 1], ins[k + 2]])
                    .unwrap()
            })
            .collect();
        let y = n.add_gate(GateKind::Or, &hard).unwrap();
        n.mark_output(y, "y").unwrap();

        let (dec, _mode, addr) = apply_decoder_control(&n, &hard).unwrap();
        // 3 nets need 2 address bits + 1 mode pin (vs 3 value pins).
        assert_eq!(addr.len(), 2);
        let sim = ThreeValueSim::new(&dec).unwrap();
        // All x = 0 so every hard net is 0; address net 1 (code 2 = 0b10).
        let mut pis = vec![Logic::Zero; 6];
        pis.push(Logic::One); // mode
        pis.push(Logic::Zero); // addr0
        pis.push(Logic::One); // addr1
        let vals = sim.eval(&pis, &[]);
        let outs = sim.outputs(&vals);
        assert_eq!(outs, vec![Logic::One], "forced net propagates to y");
        // Mode off: functional (y = 0).
        pis[6] = Logic::Zero;
        let vals = sim.eval(&pis, &[]);
        assert_eq!(sim.outputs(&vals), vec![Logic::Zero]);
    }

    #[test]
    fn decoder_address_zero_forces_nothing() {
        use dft_netlist::{GateKind, Netlist};
        use dft_sim::{Logic, ThreeValueSim};
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let g = n.add_gate(GateKind::Buf, &[a]).unwrap();
        let y = n.add_gate(GateKind::Not, &[g]).unwrap();
        n.mark_output(y, "y").unwrap();
        let (dec, _, addr) = apply_decoder_control(&n, &[g]).unwrap();
        assert_eq!(addr.len(), 1);
        let sim = ThreeValueSim::new(&dec).unwrap();
        // mode = 1 but address 0: no forcing, y = ¬a.
        let vals = sim.eval(&[Logic::Zero, Logic::One, Logic::Zero], &[]);
        assert_eq!(sim.outputs(&vals), vec![Logic::One]);
    }

    #[test]
    fn test_points_raise_atpg_coverage_on_a_hard_circuit() {
        // Deep PLA-ish circuit with buried logic: control+observe points
        // must not reduce coverage and usually raise the detected count
        // under a fixed small random budget.
        let pla =
            dft_netlist::circuits::random_pattern_resistant_pla(16, 8, 12, 2, 3).synthesize("hard");
        let faults = universe(&pla);
        let cfg = AtpgConfig::new()
            .with_random_budget(128)
            .with_backtrack_limit(50)
            .with_compact(false);
        let before = generate_tests(&pla, &faults, &cfg).unwrap();
        let plan = select_test_points(&pla, 4, 4).unwrap();
        let improved = apply_test_points(&pla, &plan).unwrap();
        // Same original faults, re-homed in the improved netlist (ids are
        // stable for original gates since we cloned the arena).
        let after = generate_tests(&improved, &faults, &cfg).unwrap();
        assert!(
            after.detected_coverage() >= before.detected_coverage(),
            "{} < {}",
            after.detected_coverage(),
            before.detected_coverage()
        );
    }
}
