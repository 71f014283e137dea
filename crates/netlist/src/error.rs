//! Error types for netlist construction and parsing.

use std::error::Error;
use std::fmt;

use crate::{GateId, GateKind};

/// Errors produced while building or validating a [`Netlist`](crate::Netlist).
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum NetlistError {
    /// A gate was created with a fan-in outside the legal range for its kind.
    BadFanin {
        /// The offending kind.
        kind: GateKind,
        /// The fan-in that was supplied.
        got: usize,
    },
    /// A referenced gate id does not exist in this netlist.
    UnknownGate(GateId),
    /// An output was marked with a name that is already in use.
    DuplicateOutputName(String),
    /// A primary input was added with a name that is already in use.
    DuplicateInputName(String),
    /// An input pin index is out of range for the referenced gate.
    InvalidPin {
        /// The gate whose pin was addressed.
        gate: GateId,
        /// The out-of-range pin index.
        pin: usize,
        /// The gate's actual fan-in.
        fanin: usize,
    },
    /// The combinational part of the netlist contains a cycle through the
    /// given gate (storage elements legally break cycles; plain gates may
    /// not).
    CombinationalCycle(GateId),
    /// An edit that only makes sense on a plain logic gate was attempted
    /// on a source or storage element.
    NotALogicGate {
        /// The gate the edit targeted.
        gate: GateId,
        /// Its actual kind.
        kind: GateKind,
    },
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::BadFanin { kind, got } => {
                let (min, max) = kind.fanin_range();
                write!(
                    f,
                    "gate kind {kind} requires fan-in {min}..={max}, got {got}"
                )
            }
            NetlistError::UnknownGate(id) => write!(f, "gate {id} does not exist"),
            NetlistError::InvalidPin { gate, pin, fanin } => {
                write!(f, "gate {gate} has no input pin {pin} (fan-in {fanin})")
            }
            NetlistError::DuplicateOutputName(n) => {
                write!(f, "output name {n:?} is already in use")
            }
            NetlistError::DuplicateInputName(n) => {
                write!(f, "input name {n:?} is already in use")
            }
            NetlistError::CombinationalCycle(id) => {
                write!(f, "combinational cycle through gate {id}")
            }
            NetlistError::NotALogicGate { gate, kind } => {
                write!(f, "gate {gate} is a {kind}, not a plain logic gate")
            }
        }
    }
}

impl Error for NetlistError {}

/// Errors produced while parsing the `.bench` text format.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseBenchError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// Human-readable description of the problem.
    pub message: String,
}

impl ParseBenchError {
    pub(crate) fn new(line: usize, message: impl Into<String>) -> Self {
        ParseBenchError {
            line,
            message: message.into(),
        }
    }
}

impl fmt::Display for ParseBenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl Error for ParseBenchError {}

/// Errors produced while parsing the BLIF text format.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseBlifError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// Human-readable description of the problem.
    pub message: String,
}

impl ParseBlifError {
    pub(crate) fn new(line: usize, message: impl Into<String>) -> Self {
        ParseBlifError {
            line,
            message: message.into(),
        }
    }
}

impl fmt::Display for ParseBlifError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl Error for ParseBlifError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = NetlistError::BadFanin {
            kind: GateKind::Not,
            got: 3,
        };
        assert_eq!(e.to_string(), "gate kind NOT requires fan-in 1..=1, got 3");
        let e = NetlistError::BadFanin {
            kind: GateKind::And,
            got: 1,
        };
        assert_eq!(
            e.to_string(),
            "gate kind AND requires fan-in 2..=256, got 1"
        );
        let e = NetlistError::InvalidPin {
            gate: GateId::from_index(4),
            pin: 3,
            fanin: 2,
        };
        assert_eq!(e.to_string(), "gate g4 has no input pin 3 (fan-in 2)");
        let e = ParseBenchError::new(7, "unknown gate kind FROB");
        assert_eq!(e.to_string(), "line 7: unknown gate kind FROB");
    }
}
