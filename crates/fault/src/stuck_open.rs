//! CMOS stuck-open faults and two-pattern testing.
//!
//! §I-A of the paper: "The problem with CMOS is that there are a number
//! of faults which could change a combinational network into a
//! sequential network. Therefore, the combinational patterns are no
//! longer effective in testing the network in all cases. It still
//! remains to be seen whether … the single Stuck-At fault assumption
//! will survive the CMOS problems."
//!
//! This module models that fault class. A CMOS gate drives its output
//! through a pull-up (PMOS) and a pull-down (NMOS) transistor network;
//! if one transistor is stuck open, input combinations that needed it
//! leave the output *floating*, and the node capacitance retains the
//! previous value — memory where none was designed. Detection therefore
//! needs an ordered **pair** of patterns: the first initializes the
//! node to the complement, the second exposes the float.
//!
//! The model covers the inverting primitives CMOS actually builds
//! (NOT/NAND/NOR):
//!
//! * NAND pull-up: one PMOS per input, in parallel (conducts when that
//!   input is 0). PMOS of input *i* stuck open ⇒ the output floats
//!   exactly when input *i* is the *only* 0.
//! * NAND pull-down: all NMOS in series (conducts when all inputs 1).
//!   Any NMOS stuck open ⇒ the output floats whenever all inputs are 1.
//! * NOR is the dual; NOT degenerates to both.

use dft_netlist::{GateId, GateKind, LevelizeError, Netlist};
use dft_sim::{Logic, ThreeValueSim};

/// Which transistor network the open sits in.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OpenKind {
    /// A PMOS in the pull-up network (associated with one input).
    PullUp,
    /// An NMOS in the pull-down network (associated with one input).
    PullDown,
}

/// One stuck-open fault: the transistor of `pin` in the given network of
/// `gate` never conducts.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct StuckOpenFault {
    /// The afflicted gate (must be NOT/NAND/NOR).
    pub gate: GateId,
    /// The input whose transistor is open.
    pub pin: u8,
    /// Which network.
    pub kind: OpenKind,
}

impl std::fmt::Display for StuckOpenFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let net = match self.kind {
            OpenKind::PullUp => "pull-up",
            OpenKind::PullDown => "pull-down",
        };
        write!(f, "{}.in{} {net}-open", self.gate, self.pin)
    }
}

/// Enumerates the stuck-open universe: for every inverting primitive,
/// one pull-up and one pull-down open per input. (AND/OR/XOR gates in
/// the netlist are treated as compound cells whose internals this model
/// does not open — CMOS implements them as inverting stages anyway.)
#[must_use]
pub fn stuck_open_universe(netlist: &Netlist) -> Vec<StuckOpenFault> {
    let mut out = Vec::new();
    for (id, gate) in netlist.iter() {
        if !matches!(gate.kind(), GateKind::Not | GateKind::Nand | GateKind::Nor) {
            continue;
        }
        for pin in 0..gate.fanin() {
            for kind in [OpenKind::PullUp, OpenKind::PullDown] {
                out.push(StuckOpenFault {
                    gate: id,
                    pin: pin as u8,
                    kind,
                });
            }
        }
    }
    out
}

/// Whether the faulted gate floats under the given input values (and
/// what it would have driven if healthy).
fn gate_response(kind: GateKind, inputs: &[Logic], fault: Option<&StuckOpenFault>) -> GateResponse {
    // Healthy output.
    let good = Logic::eval_gate(kind, inputs);
    let Some(f) = fault else {
        return GateResponse::Driven(good);
    };
    let pin = f.pin as usize;
    match (kind, f.kind) {
        // NAND pull-up: parallel PMOS; input i's PMOS conducts when
        // input i = 0. Open ⇒ floats when i is the only 0 (no other
        // PMOS conducts and the series pull-down is off).
        (GateKind::Nand | GateKind::Not, OpenKind::PullUp) => {
            let only_zero = inputs.iter().enumerate().all(|(q, &v)| {
                if q == pin {
                    v == Logic::Zero
                } else {
                    v == Logic::One
                }
            });
            if only_zero {
                GateResponse::Floating
            } else {
                GateResponse::Driven(good)
            }
        }
        // NAND pull-down: series NMOS; conducts only when all inputs 1.
        // Any open ⇒ floats whenever the pull-down was the driver.
        (GateKind::Nand | GateKind::Not, OpenKind::PullDown) => {
            let all_one = inputs.iter().all(|&v| v == Logic::One);
            if all_one {
                GateResponse::Floating
            } else {
                GateResponse::Driven(good)
            }
        }
        // NOR pull-down: parallel NMOS per input (conducts when that
        // input is 1). Open ⇒ floats when pin is the only 1.
        (GateKind::Nor, OpenKind::PullDown) => {
            let only_one = inputs.iter().enumerate().all(|(q, &v)| {
                if q == pin {
                    v == Logic::One
                } else {
                    v == Logic::Zero
                }
            });
            if only_one {
                GateResponse::Floating
            } else {
                GateResponse::Driven(good)
            }
        }
        // NOR pull-up: series PMOS; conducts only when all inputs 0.
        (GateKind::Nor, OpenKind::PullUp) => {
            let all_zero = inputs.iter().all(|&v| v == Logic::Zero);
            if all_zero {
                GateResponse::Floating
            } else {
                GateResponse::Driven(good)
            }
        }
        _ => GateResponse::Driven(good),
    }
}

enum GateResponse {
    Driven(Logic),
    Floating,
}

/// Evaluates one pattern against the faulty machine, carrying the
/// faulted node's retained charge in `memory` (X = unknown charge).
/// Returns all node values.
fn eval_faulty(
    netlist: &Netlist,
    order: &[GateId],
    pis: &[Logic],
    fault: &StuckOpenFault,
    memory: &mut Logic,
) -> Vec<Logic> {
    let mut vals = vec![Logic::X; netlist.gate_count()];
    for (i, &pi) in netlist.primary_inputs().iter().enumerate() {
        vals[pi.index()] = pis[i];
    }
    for (id, gate) in netlist.iter() {
        match gate.kind() {
            GateKind::Const0 => vals[id.index()] = Logic::Zero,
            GateKind::Const1 => vals[id.index()] = Logic::One,
            _ => {}
        }
    }
    let mut buf: Vec<Logic> = Vec::with_capacity(8);
    for &id in order {
        let gate = netlist.gate(id);
        if gate.kind().is_source() {
            continue;
        }
        buf.clear();
        buf.extend(gate.inputs().iter().map(|&s| vals[s.index()]));
        let f = (fault.gate == id).then_some(fault);
        vals[id.index()] = match gate_response(gate.kind(), &buf, f) {
            GateResponse::Driven(v) => {
                if fault.gate == id {
                    *memory = v; // the node charges to the driven value
                }
                v
            }
            GateResponse::Floating => *memory,
        };
    }
    vals
}

/// Result of two-pattern stuck-open simulation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StuckOpenDetection {
    /// For each fault: the index of the first detecting *pair* (pairs
    /// are consecutive patterns `(k, k+1)` of the applied sequence).
    pub first_detected: Vec<Option<usize>>,
    /// Number of pattern pairs examined.
    pub pair_count: usize,
}

impl StuckOpenDetection {
    /// Detected / total.
    #[must_use]
    pub fn coverage(&self) -> f64 {
        if self.first_detected.is_empty() {
            1.0
        } else {
            self.first_detected.iter().filter(|d| d.is_some()).count() as f64
                / self.first_detected.len() as f64
        }
    }
}

/// Applies `sequence` (ordered!) to every stuck-open fault. Node charge
/// starts unknown; a fault is detected at pair `k` when, after applying
/// patterns `0..=k+1` in order, some primary output is known in both
/// machines and differs on pattern `k+1`.
///
/// # Errors
///
/// Returns [`LevelizeError`] on combinational cycles.
///
/// # Panics
///
/// Panics if a row's width disagrees with the input count, or the
/// netlist is sequential (combine with scan extraction first).
pub fn simulate_stuck_open(
    netlist: &Netlist,
    sequence: &[Vec<bool>],
    faults: &[StuckOpenFault],
) -> Result<StuckOpenDetection, LevelizeError> {
    assert!(
        netlist.is_combinational(),
        "stuck-open simulation expects a combinational network"
    );
    let sim = ThreeValueSim::new(netlist)?;
    let order = netlist.levelize()?.order();
    let outputs: Vec<GateId> = netlist.primary_outputs().iter().map(|&(g, _)| g).collect();

    // Good responses: the good machine has no memory.
    let rows: Vec<Vec<Logic>> = sequence
        .iter()
        .map(|r| {
            assert_eq!(r.len(), netlist.primary_inputs().len());
            r.iter().map(|&b| Logic::from(b)).collect()
        })
        .collect();
    let good: Vec<Vec<Logic>> = rows.iter().map(|r| sim.eval(r, &[])).collect();

    let mut first_detected = vec![None; faults.len()];
    for (fi, fault) in faults.iter().enumerate() {
        let mut memory = Logic::X;
        for (k, row) in rows.iter().enumerate() {
            let vals = eval_faulty(netlist, order, row, fault, &mut memory);
            if k == 0 {
                continue; // nothing initialized yet: pair index starts at 1
            }
            let detected = outputs.iter().any(|&g| {
                matches!(
                    (good[k][g.index()].to_bool(), vals[g.index()].to_bool()),
                    (Some(a), Some(b)) if a != b
                )
            });
            if detected {
                first_detected[fi] = Some(k - 1);
                break;
            }
        }
    }

    Ok(StuckOpenDetection {
        first_detected,
        pair_count: sequence.len().saturating_sub(1),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dft_netlist::circuits::c17;
    use dft_netlist::Netlist;

    fn nand2() -> (Netlist, GateId) {
        let mut n = Netlist::new("nand2");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g = n.add_gate(GateKind::Nand, &[a, b]).unwrap();
        n.mark_output(g, "y").unwrap();
        (n, g)
    }

    #[test]
    fn classic_two_pattern_test_for_pullup_open() {
        // PMOS of input a open: output floats when (a, b) = (0, 1).
        // Classic test: first (1,1) drives y = 0, then (0,1) — healthy
        // y = 1, faulty y retains 0.
        let (n, g) = nand2();
        let fault = StuckOpenFault {
            gate: g,
            pin: 0,
            kind: OpenKind::PullUp,
        };
        let seq = vec![vec![true, true], vec![false, true]];
        let r = simulate_stuck_open(&n, &seq, &[fault]).unwrap();
        assert_eq!(r.first_detected, vec![Some(0)]);
    }

    #[test]
    fn wrong_order_misses_the_fault() {
        // The same two patterns in the opposite order initialize the
        // node to 1 — the float then *matches* the good value.
        let (n, g) = nand2();
        let fault = StuckOpenFault {
            gate: g,
            pin: 0,
            kind: OpenKind::PullUp,
        };
        let seq = vec![vec![false, true], vec![true, true]];
        let r = simulate_stuck_open(&n, &seq, &[fault]).unwrap();
        assert_eq!(
            r.first_detected,
            vec![None],
            "order matters: stuck-at thinking fails here"
        );
    }

    #[test]
    fn pulldown_open_needs_the_dual_pair() {
        // NMOS open: floats when (1,1). Init with any 1-producing input
        // (e.g. (0,1)), then apply (1,1): healthy 0, faulty retains 1.
        let (n, g) = nand2();
        let fault = StuckOpenFault {
            gate: g,
            pin: 1,
            kind: OpenKind::PullDown,
        };
        let seq = vec![vec![false, true], vec![true, true]];
        let r = simulate_stuck_open(&n, &seq, &[fault]).unwrap();
        assert_eq!(r.first_detected, vec![Some(0)]);
    }

    #[test]
    fn unknown_initial_charge_is_conservative() {
        // A single pattern can never detect: the retained value is X.
        let (n, g) = nand2();
        let fault = StuckOpenFault {
            gate: g,
            pin: 0,
            kind: OpenKind::PullUp,
        };
        let r = simulate_stuck_open(&n, &[vec![false, true]], &[fault]).unwrap();
        assert_eq!(r.first_detected, vec![None]);
        assert_eq!(r.pair_count, 0);
    }

    #[test]
    fn universe_counts() {
        let (n, _) = nand2();
        // One NAND with 2 inputs: 2 pins × 2 networks = 4 opens.
        assert_eq!(stuck_open_universe(&n).len(), 4);
        // c17: 6 two-input NANDs ⇒ 24.
        assert_eq!(stuck_open_universe(&c17()).len(), 24);
    }

    #[test]
    fn exhaustive_pairs_cover_most_of_c17() {
        // Walk all 32 patterns twice in Gray-ish order so adjacent
        // patterns form useful pairs.
        let n = c17();
        let faults = stuck_open_universe(&n);
        let mut seq: Vec<Vec<bool>> = Vec::new();
        for round in 0..2 {
            for v in 0..32u8 {
                let g = v ^ (v >> 1) ^ round; // Gray code, offset per round
                seq.push((0..5).map(|i| g >> i & 1 == 1).collect());
            }
        }
        let r = simulate_stuck_open(&n, &seq, &faults).unwrap();
        assert!(
            r.coverage() > 0.7,
            "two-pattern sweeps should catch most opens ({})",
            r.coverage()
        );
    }

    #[test]
    fn not_gate_opens() {
        let mut n = Netlist::new("inv");
        let a = n.add_input("a");
        let g = n.add_gate(GateKind::Not, &[a]).unwrap();
        n.mark_output(g, "y").unwrap();
        // Pull-up open: floats when a = 0. Init with a = 1 (y = 0), then
        // a = 0: healthy 1, faulty retains 0.
        let fault = StuckOpenFault {
            gate: g,
            pin: 0,
            kind: OpenKind::PullUp,
        };
        let r = simulate_stuck_open(&n, &[vec![true], vec![false]], &[fault]).unwrap();
        assert_eq!(r.first_detected, vec![Some(0)]);
    }
}
