//! Backward (justification) implication tables for three-valued
//! reasoning.
//!
//! Forward evaluation ([`Logic::eval_gate`]) answers "what does this
//! gate drive, given its inputs?". Deterministic ATPG and static
//! implication analysis also need the reverse question: *which input
//! values are forced by a known output value?* The answers here are the
//! classic D-algorithm backward-implication rules; they are shared by
//! the D-algorithm in `dft-atpg` and the static implication engine in
//! `dft-implic` so the two can never drift apart.
//!
//! Every returned `(pin, value)` pair is a *necessary* condition: any
//! complete input assignment producing `out` at the gate output agrees
//! with it. Choice points (e.g. "some AND input must be 0") are not
//! enumerated — that is the search engine's job, not implication's.

use dft_netlist::GateKind;

use crate::value::Logic;

/// Input pins forced by a known output value, given the currently-known
/// input values `ins` (one [`Logic`] per pin, `X` = unknown).
///
/// Rules:
/// * `Buf`/`Not` map the output straight through (inverted for `Not`).
/// * AND/NAND/OR/NOR at the *noncontrolled* response force every input
///   to the noncontrolling value.
/// * AND/NAND/OR/NOR at the *controlled* response force the last
///   unknown input to the controlling value once all other inputs are
///   known noncontrolling.
/// * XOR/XNOR force the last unknown input to whatever parity completes
///   the known output.
///
/// Source gates (`Input`, `Const*`, `Dff`) force nothing.
#[must_use]
pub fn forced_inputs(kind: GateKind, out: bool, ins: &[Logic]) -> Vec<(usize, Logic)> {
    let mut forced = Vec::new();
    forced_inputs_into(kind, out, ins, &mut forced);
    forced
}

/// [`forced_inputs`] into a caller-owned buffer: `forced` is cleared,
/// then filled in the same order. Allocation-free once the buffer has
/// grown to the widest gate, which is what the implication engine's
/// propagation loop needs.
pub fn forced_inputs_into(
    kind: GateKind,
    out: bool,
    ins: &[Logic],
    forced: &mut Vec<(usize, Logic)>,
) {
    forced.clear();
    match kind {
        GateKind::Buf => forced.push((0, Logic::from(out))),
        GateKind::Not => forced.push((0, Logic::from(!out))),
        GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor => {
            let c = kind.controlling_value().expect("AND/OR family");
            let controlled_out = c != kind.inverts();
            if out != controlled_out {
                // Only the all-noncontrolling row produces this output.
                forced.extend((0..ins.len()).map(|pin| (pin, Logic::from(!c))));
            } else if !ins.contains(&Logic::from(c)) {
                // Some input must be controlling; forced only when all
                // other inputs are known noncontrolling and exactly one
                // pin remains unknown.
                if let Some(pin) = sole_unknown(ins) {
                    forced.push((pin, Logic::from(c)));
                }
            }
        }
        GateKind::Xor | GateKind::Xnor => {
            if let Some(pin) = sole_unknown(ins) {
                let parity = ins
                    .iter()
                    .filter_map(|v| v.to_bool())
                    .fold(out != (kind == GateKind::Xnor), |p, b| p ^ b);
                forced.push((pin, Logic::from(parity)));
            }
        }
        GateKind::Input | GateKind::Const0 | GateKind::Const1 | GateKind::Dff => {}
    }
}

/// The only unknown pin of `ins`, if exactly one is unknown.
fn sole_unknown(ins: &[Logic]) -> Option<usize> {
    let mut unknown = ins.iter().enumerate().filter(|(_, v)| !v.is_known());
    let (pin, _) = unknown.next()?;
    unknown.next().is_none().then_some(pin)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn and_family_noncontrolled_forces_all_pins() {
        // AND output 1 → every input 1.
        let f = forced_inputs(GateKind::And, true, &[Logic::X, Logic::X]);
        assert_eq!(f, vec![(0, Logic::One), (1, Logic::One)]);
        // NOR output 1 → every input 0.
        let f = forced_inputs(GateKind::Nor, true, &[Logic::X, Logic::X, Logic::X]);
        assert_eq!(
            f,
            vec![(0, Logic::Zero), (1, Logic::Zero), (2, Logic::Zero)]
        );
    }

    #[test]
    fn and_family_controlled_forces_last_unknown() {
        // AND output 0 with in0 already 1 → in1 must be 0.
        let f = forced_inputs(GateKind::And, false, &[Logic::One, Logic::X]);
        assert_eq!(f, vec![(1, Logic::Zero)]);
        // Two unknowns: nothing is forced.
        let f = forced_inputs(GateKind::And, false, &[Logic::X, Logic::X]);
        assert!(f.is_empty());
        // A known controlling input already justifies the output.
        let f = forced_inputs(GateKind::And, false, &[Logic::Zero, Logic::X]);
        assert!(f.is_empty());
    }

    #[test]
    fn xor_forces_completing_parity() {
        let f = forced_inputs(GateKind::Xor, true, &[Logic::One, Logic::X]);
        assert_eq!(f, vec![(1, Logic::Zero)]);
        let f = forced_inputs(GateKind::Xnor, true, &[Logic::One, Logic::X]);
        assert_eq!(f, vec![(1, Logic::One)]);
        let f = forced_inputs(GateKind::Xor, true, &[Logic::X, Logic::X]);
        assert!(f.is_empty());
    }

    #[test]
    fn single_input_gates_map_through() {
        assert_eq!(
            forced_inputs(GateKind::Not, true, &[Logic::X]),
            vec![(0, Logic::Zero)]
        );
        assert_eq!(
            forced_inputs(GateKind::Buf, false, &[Logic::X]),
            vec![(0, Logic::Zero)]
        );
    }

    #[test]
    fn buffer_form_matches_and_is_cleared_first() {
        let mut buf = vec![(7, Logic::X)];
        forced_inputs_into(GateKind::Or, false, &[Logic::X, Logic::X], &mut buf);
        assert_eq!(
            buf,
            forced_inputs(GateKind::Or, false, &[Logic::X, Logic::X])
        );
        forced_inputs_into(GateKind::Nand, true, &[Logic::One, Logic::X], &mut buf);
        assert_eq!(buf, vec![(1, Logic::Zero)]);
        forced_inputs_into(GateKind::Input, true, &[], &mut buf);
        assert!(buf.is_empty());
    }

    #[test]
    fn sources_force_nothing() {
        assert!(forced_inputs(GateKind::Input, true, &[]).is_empty());
        assert!(forced_inputs(GateKind::Dff, false, &[Logic::X]).is_empty());
    }
}
