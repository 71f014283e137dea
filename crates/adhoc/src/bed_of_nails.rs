//! Bed-of-nails in-circuit testing (§III-B, Fig. 5).
//!
//! Probing the underside of the board gives per-net control and
//! observation: each chip is tested "independently of the other chips on
//! the board" by overdriving its input nets. The gain is *resolution* —
//! a failing in-circuit test names one chip, where an edge-connector
//! test only names a cone of candidates. The costs the paper lists —
//! extra loading, overdrive stress, fixture mechanics — are tracked as
//! counts.

use std::collections::HashSet;

use dft_fault::{Fault, FaultyView};
use dft_netlist::{GateId, LevelizeError, Netlist};
use dft_sim::PatternSet;

/// The outcome of in-circuit-testing one group ("chip") of gates.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InCircuitReport {
    /// Faults of the group detected by the in-circuit patterns.
    pub detected: usize,
    /// Total faults attributed to the group.
    pub total: usize,
    /// Nets the tester had to overdrive (each is an electrical-stress
    /// exposure the paper warns about).
    pub overdriven_nets: usize,
    /// Nails used (input nets + observed output).
    pub nails_used: usize,
}

impl InCircuitReport {
    /// Detected / total.
    #[must_use]
    pub fn coverage(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            self.detected as f64 / self.total as f64
        }
    }
}

/// In-circuit-tests one group of gates: nails overdrive every net feeding
/// the group, every group-internal fault is checked by exhaustively
/// driving the group's input nets and observing its output nails.
///
/// `group` lists the gate ids of the "chip"; `faults` is the board fault
/// list (faults outside the group are ignored).
///
/// # Errors
///
/// Returns [`LevelizeError`] on combinational cycles.
///
/// # Panics
///
/// Panics if the group's external fan-in exceeds 20 nets (the exhaustive
/// drive would be too wide — split the chip).
pub fn in_circuit_test(
    board: &Netlist,
    group: &[GateId],
    faults: &[Fault],
) -> Result<InCircuitReport, LevelizeError> {
    board.levelize()?;
    let members: HashSet<GateId> = group.iter().copied().collect();
    // External nets feeding the group = overdriven by nails.
    let mut ext_inputs: Vec<GateId> = Vec::new();
    for &g in group {
        for &src in board.gate(g).inputs() {
            if !members.contains(&src) && !ext_inputs.contains(&src) {
                ext_inputs.push(src);
            }
        }
    }
    assert!(
        ext_inputs.len() <= 20,
        "group fan-in {} too wide for exhaustive in-circuit drive",
        ext_inputs.len()
    );
    // Outputs: group nets read outside the group, or marked as POs.
    let outputs: Vec<GateId> = {
        let fanout = board.topology().readers();
        group
            .iter()
            .copied()
            .filter(|&g| {
                fanout[g.index()]
                    .iter()
                    .any(|&(r, _)| !members.contains(&r))
                    || board.primary_outputs().iter().any(|&(o, _)| o == g)
                    || fanout[g.index()].is_empty()
            })
            .collect()
    };

    // Build the extracted chip netlist: ext inputs become PIs, group
    // gates are copied, outputs marked.
    let mut chip = Netlist::new("chip");
    let mut map: std::collections::HashMap<GateId, GateId> = std::collections::HashMap::new();
    for (i, &src) in ext_inputs.iter().enumerate() {
        map.insert(src, chip.add_input(format!("nail{i}")));
    }
    // Copy group gates in levelized order so drivers exist first.
    let lv = board.levelize()?;
    for &id in lv.order() {
        if !members.contains(&id) {
            continue;
        }
        let gate = board.gate(id);
        let ins: Vec<GateId> = gate.inputs().iter().map(|s| map[s]).collect();
        let new_id = chip
            .add_gate(gate.kind(), &ins)
            .expect("arity preserved from a valid board");
        map.insert(id, new_id);
    }
    for (k, &o) in outputs.iter().enumerate() {
        chip.mark_output(map[&o], format!("out{k}"))
            .expect("fresh names");
    }

    // Translate the group's faults and test exhaustively.
    let chip_faults: Vec<Fault> = faults
        .iter()
        .filter(|f| members.contains(&f.site.gate))
        .map(|f| Fault {
            site: dft_netlist::PortRef {
                gate: map[&f.site.gate],
                pin: f.site.pin,
            },
            stuck: f.stuck,
        })
        .collect();
    let k = ext_inputs.len();
    let rows: Vec<Vec<bool>> = (0..1usize << k)
        .map(|v| (0..k).map(|b| v >> b & 1 == 1).collect())
        .collect();
    let p = PatternSet::from_rows(k, &rows);
    let r = dft_fault::simulate(&chip, &p, &chip_faults)?;

    Ok(InCircuitReport {
        detected: r.detected_count(),
        total: chip_faults.len(),
        overdriven_nets: ext_inputs
            .iter()
            .filter(|&&s| !board.gate(s).kind().is_source())
            .count(),
        nails_used: ext_inputs.len() + outputs.len(),
    })
}

/// Edge-connector diagnosis: given a fault observed at the board's
/// primary outputs, the candidate set is the union of the failing
/// outputs' fan-in cones — the coarse resolution in-circuit testing
/// improves on.
///
/// # Errors
///
/// Returns [`LevelizeError`] on combinational cycles.
pub fn edge_connector_candidates(
    board: &Netlist,
    fault: Fault,
    patterns: &PatternSet,
) -> Result<Vec<GateId>, LevelizeError> {
    let view = FaultyView::new(board)?;
    let state = vec![0u64; view.storage().len()];
    let outs: Vec<GateId> = board.primary_outputs().iter().map(|&(g, _)| g).collect();
    let mut failing: HashSet<GateId> = HashSet::new();
    for b in 0..patterns.block_count() {
        let lanes = patterns.lanes_in_block(b);
        let mask = if lanes == 64 {
            u64::MAX
        } else {
            (1u64 << lanes) - 1
        };
        let good = view.eval_block(patterns.block(b), &state, None);
        let bad = view.eval_block(patterns.block(b), &state, Some(fault));
        for &o in &outs {
            if (good[o.index()] ^ bad[o.index()]) & mask != 0 {
                failing.insert(o);
            }
        }
    }
    // Union of fan-in cones.
    let mut cone: HashSet<GateId> = HashSet::new();
    let mut stack: Vec<GateId> = failing.into_iter().collect();
    while let Some(g) = stack.pop() {
        if !cone.insert(g) {
            continue;
        }
        for &src in board.gate(g).inputs() {
            stack.push(src);
        }
    }
    let mut v: Vec<GateId> = cone.into_iter().collect();
    v.sort_unstable();
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dft_fault::universe;
    use dft_netlist::circuits::c17;
    use dft_netlist::PortRef;

    #[test]
    fn per_gate_in_circuit_tests_cover_everything() {
        let board = c17();
        let faults = universe(&board);
        let logic: Vec<GateId> = board
            .ids()
            .filter(|&id| !board.gate(id).kind().is_source())
            .collect();
        let mut total_detected = 0;
        let mut total = 0;
        for &g in &logic {
            let r = in_circuit_test(&board, &[g], &faults).unwrap();
            assert_eq!(r.coverage(), 1.0, "gate {g} not fully covered in-circuit");
            total_detected += r.detected;
            total += r.total;
        }
        assert_eq!(total_detected, total);
    }

    #[test]
    fn resolution_beats_edge_connector() {
        let board = c17();
        let faults = universe(&board);
        // Fault deep inside: first-level NAND output stuck.
        let lv = board.levelize().unwrap();
        let internal = board
            .ids()
            .find(|&id| !board.gate(id).kind().is_source() && lv.level(id) == 1)
            .unwrap();
        let fault = Fault::stuck_at_1(PortRef::output(internal));
        let rows: Vec<Vec<bool>> = (0..32u8)
            .map(|v| (0..5).map(|i| v >> i & 1 == 1).collect())
            .collect();
        let p = PatternSet::from_rows(5, &rows);
        let edge = edge_connector_candidates(&board, fault, &p).unwrap();
        assert!(
            edge.len() >= 4,
            "edge diagnosis blames a whole cone: {edge:?}"
        );
        // In-circuit: the one-gate group test fails exactly for that chip.
        let r = in_circuit_test(&board, &[internal], &faults).unwrap();
        assert!(r.detected > 0, "the chip's own test catches it");
        assert_eq!(r.nails_used, 2 + 1, "two input nails + one output nail");
    }

    #[test]
    fn overdrive_exposure_is_counted() {
        let board = c17();
        let faults = universe(&board);
        let lv = board.levelize().unwrap();
        // A second-level NAND reads internal nets: both must be overdriven.
        let deep = board
            .ids()
            .find(|&id| !board.gate(id).kind().is_source() && lv.level(id) >= 2)
            .unwrap();
        let r = in_circuit_test(&board, &[deep], &faults).unwrap();
        assert!(r.overdriven_nets >= 1);
    }

    #[test]
    fn multi_gate_groups_work() {
        let board = c17();
        let faults = universe(&board);
        let logic: Vec<GateId> = board
            .ids()
            .filter(|&id| !board.gate(id).kind().is_source())
            .collect();
        let r = in_circuit_test(&board, &logic, &faults).unwrap();
        assert_eq!(r.total, faults.len() - 10); // all but the 5 PI stems ×2
        assert_eq!(r.coverage(), 1.0);
    }
}
