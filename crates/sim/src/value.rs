//! Three-valued logic.

use std::fmt;

use dft_netlist::GateKind;

/// A ternary logic value: 0, 1 or unknown (X).
///
/// X models uninitialized storage and unassigned inputs. The operations
/// are the standard pessimistic extensions: an AND with any 0 input is 0,
/// with no 0 but some X is X, and so on.
///
/// ```
/// use dft_sim::Logic;
///
/// assert_eq!(Logic::Zero & Logic::X, Logic::Zero);
/// assert_eq!(Logic::One & Logic::X, Logic::X);
/// assert_eq!(!Logic::X, Logic::X);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Logic {
    /// Logic 0.
    Zero,
    /// Logic 1.
    One,
    /// Unknown.
    #[default]
    X,
}

impl Logic {
    /// Converts a known value to `bool`; `None` for X.
    #[must_use]
    pub fn to_bool(self) -> Option<bool> {
        match self {
            Logic::Zero => Some(false),
            Logic::One => Some(true),
            Logic::X => None,
        }
    }

    /// Whether the value is known (not X).
    #[must_use]
    pub fn is_known(self) -> bool {
        self != Logic::X
    }

    /// Evaluates a gate kind over three-valued inputs.
    ///
    /// Sources (`Input`, `Dff`) pass their single "input" through — the
    /// simulators feed them the externally supplied value.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is empty for a kind that requires fan-in.
    #[must_use]
    pub fn eval_gate(kind: GateKind, inputs: &[Logic]) -> Logic {
        Logic::eval_iter(kind, inputs.iter().copied())
    }

    /// [`Logic::eval_gate`] over any input sequence, so a caller reading
    /// pins out of a flat fan-in table (or through a per-pin override)
    /// need not collect them into a slice first.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is empty for a kind that requires fan-in.
    #[must_use]
    pub fn eval_iter(kind: GateKind, inputs: impl IntoIterator<Item = Logic>) -> Logic {
        let mut inputs = inputs.into_iter();
        let and = |acc: Logic, v: Logic| acc & v;
        let or = |acc: Logic, v: Logic| acc | v;
        let xor = |acc: Logic, v: Logic| acc ^ v;
        match kind {
            GateKind::Const0 => Logic::Zero,
            GateKind::Const1 => Logic::One,
            GateKind::Input | GateKind::Buf | GateKind::Dff => {
                inputs.next().expect("gate kind requires fan-in")
            }
            GateKind::Not => !inputs.next().expect("gate kind requires fan-in"),
            GateKind::And => inputs.fold(Logic::One, and),
            GateKind::Nand => !inputs.fold(Logic::One, and),
            GateKind::Or => inputs.fold(Logic::Zero, or),
            GateKind::Nor => !inputs.fold(Logic::Zero, or),
            GateKind::Xor => inputs.fold(Logic::Zero, xor),
            GateKind::Xnor => !inputs.fold(Logic::Zero, xor),
        }
    }
}

impl From<bool> for Logic {
    fn from(b: bool) -> Self {
        if b {
            Logic::One
        } else {
            Logic::Zero
        }
    }
}

impl std::ops::BitAnd for Logic {
    type Output = Logic;
    fn bitand(self, rhs: Logic) -> Logic {
        match (self, rhs) {
            (Logic::Zero, _) | (_, Logic::Zero) => Logic::Zero,
            (Logic::One, Logic::One) => Logic::One,
            _ => Logic::X,
        }
    }
}

impl std::ops::BitOr for Logic {
    type Output = Logic;
    fn bitor(self, rhs: Logic) -> Logic {
        match (self, rhs) {
            (Logic::One, _) | (_, Logic::One) => Logic::One,
            (Logic::Zero, Logic::Zero) => Logic::Zero,
            _ => Logic::X,
        }
    }
}

impl std::ops::BitXor for Logic {
    type Output = Logic;
    fn bitxor(self, rhs: Logic) -> Logic {
        match (self, rhs) {
            (Logic::X, _) | (_, Logic::X) => Logic::X,
            (a, b) => Logic::from(a != b),
        }
    }
}

impl std::ops::Not for Logic {
    type Output = Logic;
    fn not(self) -> Logic {
        match self {
            Logic::Zero => Logic::One,
            Logic::One => Logic::Zero,
            Logic::X => Logic::X,
        }
    }
}

impl fmt::Display for Logic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Logic::Zero => "0",
            Logic::One => "1",
            Logic::X => "X",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [Logic; 3] = [Logic::Zero, Logic::One, Logic::X];

    #[test]
    fn and_or_identities() {
        for v in ALL {
            assert_eq!(v & Logic::Zero, Logic::Zero);
            assert_eq!(v | Logic::One, Logic::One);
            assert_eq!(v & Logic::One, v);
            assert_eq!(v | Logic::Zero, v);
        }
    }

    #[test]
    fn xor_with_x_is_x() {
        for v in ALL {
            assert_eq!(v ^ Logic::X, Logic::X);
        }
        assert_eq!(Logic::One ^ Logic::One, Logic::Zero);
        assert_eq!(Logic::One ^ Logic::Zero, Logic::One);
    }

    #[test]
    fn not_is_involutive_on_known_values() {
        assert_eq!(!!Logic::Zero, Logic::Zero);
        assert_eq!(!!Logic::One, Logic::One);
        assert_eq!(!!Logic::X, Logic::X);
    }

    #[test]
    fn gate_eval_matches_boolean_on_known_inputs() {
        for kind in [
            GateKind::And,
            GateKind::Or,
            GateKind::Nand,
            GateKind::Nor,
            GateKind::Xor,
            GateKind::Xnor,
        ] {
            for a in [false, true] {
                for b in [false, true] {
                    let expect = kind.eval_bool(&[a, b]);
                    let got = Logic::eval_gate(kind, &[a.into(), b.into()]);
                    assert_eq!(got, Logic::from(expect), "{kind} {a} {b}");
                }
            }
        }
    }

    #[test]
    fn controlling_input_defeats_x() {
        assert_eq!(
            Logic::eval_gate(GateKind::And, &[Logic::Zero, Logic::X]),
            Logic::Zero
        );
        assert_eq!(
            Logic::eval_gate(GateKind::Nor, &[Logic::One, Logic::X]),
            Logic::Zero
        );
        assert_eq!(
            Logic::eval_gate(GateKind::Or, &[Logic::X, Logic::X]),
            Logic::X
        );
    }

    #[test]
    fn conversions() {
        assert_eq!(Logic::from(true), Logic::One);
        assert_eq!(Logic::One.to_bool(), Some(true));
        assert_eq!(Logic::X.to_bool(), None);
        assert!(Logic::Zero.is_known());
        assert!(!Logic::X.is_known());
        assert_eq!(Logic::X.to_string(), "X");
    }
}
