//! Machine-applicable fix hints.
//!
//! A [`FixHint`] is the structured counterpart of a diagnostic's free-text
//! `hint`: a rustc-suggestion-style description of a concrete netlist
//! edit that a repair tool can expand into an actual transform (see the
//! `dft-repair` crate). Hints name *what* to change and *where*; the
//! expansion into gates/pins — test-point multiplexers, degating
//! hardware, scan cells, constant folding — stays in `dft-adhoc`,
//! `dft-scan` and `dft-repair`, so a hint is stable even when a
//! transform's implementation details change.

use std::fmt;

use dft_netlist::GateId;

/// A machine-applicable repair suggestion attached to a diagnostic.
///
/// Every variant corresponds to a transform the workspace can actually
/// perform; a repair pipeline may expand one hint into several concrete
/// candidate edits (for example a control-point hint can become either a
/// test-mode multiplexer or degating hardware).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FixHint {
    /// Route `net` to a new observation test point (an extra primary
    /// output), per §III-B.
    ObservePoint {
        /// The unobservable net.
        net: GateId,
    },
    /// Make `net` externally drivable through a test-mode multiplexer
    /// or degating hardware, per §III-B / Fig. 2.
    ControlPoint {
        /// The uncontrollable net.
        net: GateId,
    },
    /// Insert degating hardware (blocking AND plus control OR) on
    /// `net`, per Fig. 2 — the partitioning form of a control point.
    Degate {
        /// The net to degate.
        net: GateId,
    },
    /// Put every storage element behind a synchronous CLEAR line so one
    /// pin initializes the machine (§III-B).
    AddReset,
    /// Place `storage` on a scan chain (§IV) so its state becomes a
    /// pseudo primary input/output.
    ScanConvert {
        /// The storage element to convert.
        storage: GateId,
    },
    /// Replace `net` — proven constant `value` under every input
    /// assignment — with a tied constant and delete the logic that only
    /// feeds it (§I-B redundancy removal).
    FoldConstant {
        /// The provably constant net.
        net: GateId,
        /// The constant it always holds.
        value: bool,
    },
    /// Remove the provably redundant gate by folding its output to
    /// `value` (sound because its stuck-at-`value` fault is untestable).
    RemoveRedundant {
        /// The redundant gate.
        gate: GateId,
        /// A fold value whose stuck-at fault was proven untestable.
        value: bool,
    },
}

impl FixHint {
    /// Stable kebab-case discriminator (used in JSON reports and repair
    /// plans).
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            FixHint::ObservePoint { .. } => "observe-point",
            FixHint::ControlPoint { .. } => "control-point",
            FixHint::Degate { .. } => "degate",
            FixHint::AddReset => "add-reset",
            FixHint::ScanConvert { .. } => "scan-convert",
            FixHint::FoldConstant { .. } => "fold-constant",
            FixHint::RemoveRedundant { .. } => "remove-redundant",
        }
    }

    /// The gate/net the fix targets (`None` for netlist-wide fixes like
    /// [`FixHint::AddReset`]).
    #[must_use]
    pub fn target(&self) -> Option<GateId> {
        match *self {
            FixHint::ObservePoint { net }
            | FixHint::ControlPoint { net }
            | FixHint::Degate { net }
            | FixHint::FoldConstant { net, .. } => Some(net),
            FixHint::ScanConvert { storage } => Some(storage),
            FixHint::RemoveRedundant { gate, .. } => Some(gate),
            FixHint::AddReset => None,
        }
    }

    /// The hint as a JSON object (no trailing whitespace), as a
    /// `Display` value, so a report writes it without building a
    /// `String`.
    #[must_use]
    pub fn json(&self) -> impl fmt::Display + '_ {
        fmt::from_fn(move |f| {
            write!(f, "{{ \"kind\": \"{}\"", self.kind())?;
            if let Some(t) = self.target() {
                write!(f, ", \"target\": \"{t}\", \"target_index\": {}", t.index())?;
            }
            if let FixHint::FoldConstant { value, .. } | FixHint::RemoveRedundant { value, .. } =
                self
            {
                write!(f, ", \"value\": {}", u8::from(*value))?;
            }
            f.write_str(" }")
        })
    }

    /// Renders [`FixHint::json`] into a `String`.
    #[must_use]
    pub fn to_json(&self) -> String {
        self.json().to_string()
    }
}

impl fmt::Display for FixHint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FixHint::ObservePoint { net } => {
                write!(f, "insert an observation test point at {net}")
            }
            FixHint::ControlPoint { net } => write!(f, "insert a control test point at {net}"),
            FixHint::Degate { net } => write!(f, "insert degating hardware on {net}"),
            FixHint::AddReset => write!(f, "add a CLEAR line to all storage elements"),
            FixHint::ScanConvert { storage } => write!(f, "place {storage} on a scan chain"),
            FixHint::FoldConstant { net, value } => {
                write!(
                    f,
                    "fold {net} to constant {} and delete its private cone",
                    u8::from(value)
                )
            }
            FixHint::RemoveRedundant { gate, value } => {
                write!(
                    f,
                    "remove redundant gate {gate} (fold to {})",
                    u8::from(value)
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hint_json_and_display() {
        let h = FixHint::FoldConstant {
            net: GateId::from_index(5),
            value: false,
        };
        assert_eq!(h.kind(), "fold-constant");
        assert_eq!(h.target(), Some(GateId::from_index(5)));
        assert_eq!(
            h.to_json(),
            "{ \"kind\": \"fold-constant\", \"target\": \"g5\", \"target_index\": 5, \"value\": 0 }"
        );
        assert!(h.to_string().contains("g5"));
        assert_eq!(FixHint::AddReset.to_json(), "{ \"kind\": \"add-reset\" }");
        assert_eq!(FixHint::AddReset.target(), None);
    }
}
