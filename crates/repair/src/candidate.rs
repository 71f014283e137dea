//! From fix hints to concrete candidate edits.
//!
//! A lint [`FixHint`] names a repair *intent*; this module expands it
//! into [`CandidateEdit`]s — concrete, applicable netlist transforms —
//! and applies them. One hint may expand to several candidates (a
//! control point can be a test-mode multiplexer or degating hardware;
//! the autopilot lets the ranking decide), and several diagnostics may
//! expand to the same candidate (deduplicated by [`CandidateEdit::key`]).
//!
//! All expansions reuse the workspace's existing transforms:
//! `dft-adhoc` test points, degating and reset; `dft-scan` insertion;
//! and `Netlist::replace_with_const` for §I-B redundancy removal.

use dft_adhoc::{add_reset, apply_test_points, insert_degating, ResetKind, TestPointPlan};
use dft_lint::{Diagnostic, FixHint};
use dft_netlist::cones::exclusive_fanin_region;
use dft_netlist::{GateId, LevelizeError, Netlist, NetlistError};
use dft_scan::{insert_scan, ScanConfig, ScanStyle};

/// One concrete, applicable netlist edit.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CandidateEdit {
    /// Expose `net` as an extra primary output (`tp_obs0`).
    Observe {
        /// The net to observe.
        net: GateId,
    },
    /// Put a test-mode multiplexer on `net` (`tp_en`/`tp_val0` pins).
    ControlMux {
        /// The net to control.
        net: GateId,
    },
    /// Insert degating hardware on `net` (`degate`/`control0` pins).
    Degate {
        /// The net to degate.
        net: GateId,
    },
    /// Gate every storage element's data input with a CLEAR line.
    AddReset,
    /// Thread the storage into a Scan-Path chain. Scan is modeled as
    /// test-mode *access*, not extra system logic, so the functional
    /// netlist is unchanged — the candidate exists so scan hints flow
    /// through the same verify/economics gate as everything else (and
    /// are rejected there when the combinational view gains nothing).
    ScanConvert,
    /// Fold `net` to constant `value` and delete the gates that exist
    /// only to feed it (§I-B redundancy removal).
    Fold {
        /// The net proven constant.
        net: GateId,
        /// The constant it holds.
        value: bool,
    },
}

impl CandidateEdit {
    /// Stable kebab-case discriminator (plan JSON, obs labels).
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            CandidateEdit::Observe { .. } => "observe",
            CandidateEdit::ControlMux { .. } => "control-mux",
            CandidateEdit::Degate { .. } => "degate",
            CandidateEdit::AddReset => "add-reset",
            CandidateEdit::ScanConvert => "scan-convert",
            CandidateEdit::Fold { .. } => "fold",
        }
    }

    /// The targeted net, if the edit has one.
    #[must_use]
    pub fn target(&self) -> Option<GateId> {
        match *self {
            CandidateEdit::Observe { net }
            | CandidateEdit::ControlMux { net }
            | CandidateEdit::Degate { net }
            | CandidateEdit::Fold { net, .. } => Some(net),
            CandidateEdit::AddReset | CandidateEdit::ScanConvert => None,
        }
    }

    /// A stable dedup/identity key. Gate ids are stable across applied
    /// repairs (every transform preserves the existing arena prefix), so
    /// the key identifies "the same edit" across autopilot rounds.
    #[must_use]
    pub fn key(&self) -> String {
        match *self {
            CandidateEdit::Fold { net, value } => {
                format!("{}:{}:{}", self.kind(), net, u8::from(value))
            }
            _ => match self.target() {
                Some(t) => format!("{}:{t}", self.kind()),
                None => self.kind().to_owned(),
            },
        }
    }
}

/// A candidate edit traced back to the diagnostic that proposed it.
#[derive(Clone, Debug)]
pub struct Candidate {
    /// The concrete edit.
    pub edit: CandidateEdit,
    /// Rule id of the diagnostic the edit came from.
    pub rule: &'static str,
    /// Stable `DFT-NNN` code of that rule.
    pub code: &'static str,
}

/// The result of applying a candidate edit.
#[derive(Clone, Debug)]
pub struct Edited {
    /// The repaired netlist.
    pub netlist: Netlist,
    /// Logic gates the edit added (negative for redundancy removal,
    /// which *replaces* gates with constants).
    pub extra_gates: i64,
    /// Package pins the edit added (new primary inputs + outputs).
    pub extra_pins: i64,
}

/// Why a candidate edit could not be applied.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EditError {
    /// The netlist has combinational cycles (no transform in the
    /// workspace accepts those).
    Cyclic(LevelizeError),
    /// The edit targets a net it cannot change: a fold of a primary
    /// input, constant, storage element or foreign gate id.
    Target(NetlistError),
}

impl std::fmt::Display for EditError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EditError::Cyclic(e) => write!(f, "{e}"),
            EditError::Target(e) => write!(f, "cannot apply edit: {e}"),
        }
    }
}

impl std::error::Error for EditError {}

impl From<LevelizeError> for EditError {
    fn from(e: LevelizeError) -> Self {
        EditError::Cyclic(e)
    }
}

impl From<NetlistError> for EditError {
    fn from(e: NetlistError) -> Self {
        EditError::Target(e)
    }
}

/// Expands every hinted diagnostic in `diagnostics` into candidates,
/// skipping edits whose [`CandidateEdit::key`] is in `exclude` (already
/// applied in an earlier round) and deduplicating within the batch.
/// Order follows the report; the first diagnostic proposing an edit
/// names it.
#[must_use]
pub fn expand_hints(diagnostics: &[Diagnostic], exclude: &[String]) -> Vec<Candidate> {
    let mut out: Vec<Candidate> = Vec::new();
    let mut seen: Vec<String> = exclude.to_vec();
    for d in diagnostics {
        let Some(fix) = d.fix else { continue };
        let edits: Vec<CandidateEdit> = match fix {
            FixHint::ObservePoint { net } => vec![CandidateEdit::Observe { net }],
            // A control intent has two hardware realizations; offer both
            // and let the static ranking pick.
            FixHint::ControlPoint { net } => vec![
                CandidateEdit::ControlMux { net },
                CandidateEdit::Degate { net },
            ],
            FixHint::Degate { net } => vec![CandidateEdit::Degate { net }],
            FixHint::AddReset => vec![CandidateEdit::AddReset],
            FixHint::ScanConvert { .. } => vec![CandidateEdit::ScanConvert],
            FixHint::FoldConstant { net, value } => vec![CandidateEdit::Fold { net, value }],
            FixHint::RemoveRedundant { gate, value } => {
                vec![CandidateEdit::Fold { net: gate, value }]
            }
        };
        for edit in edits {
            let key = edit.key();
            if seen.contains(&key) {
                continue;
            }
            seen.push(key);
            out.push(Candidate {
                edit,
                rule: d.rule(),
                code: d.code(),
            });
        }
    }
    out
}

/// Applies `edit` to `netlist`, returning the repaired netlist with its
/// gate/pin cost. Edits are pure: the input netlist is untouched.
///
/// # Errors
///
/// Returns [`EditError::Cyclic`] if the netlist has combinational cycles
/// (no transform in the workspace accepts those), and
/// [`EditError::Target`] for a fold whose target is not a plain logic
/// gate of `netlist`.
pub fn apply_edit(netlist: &Netlist, edit: CandidateEdit) -> Result<Edited, EditError> {
    let pins_before = port_count(netlist);
    let gates_before = netlist.logic_gate_count() as i64;
    let out = match edit {
        CandidateEdit::Observe { net } => apply_test_points(
            netlist,
            &TestPointPlan {
                observe: vec![net],
                control: vec![],
            },
        )?,
        CandidateEdit::ControlMux { net } => apply_test_points(
            netlist,
            &TestPointPlan {
                observe: vec![],
                control: vec![net],
            },
        )?,
        CandidateEdit::Degate { net } => insert_degating(netlist, &[net])?.netlist().clone(),
        CandidateEdit::AddReset => add_reset(netlist, ResetKind::Clear)?.0,
        CandidateEdit::ScanConvert => insert_scan(netlist, &ScanConfig::new(ScanStyle::ScanPath))?
            .netlist()
            .clone(),
        CandidateEdit::Fold { net, value } => {
            // The target is checked first: only a plain logic gate of
            // this netlist has a fanin region to compute.
            let mut out = netlist.clone();
            out.set_name(format!("{}_fold", netlist.name()));
            out.replace_with_const(net, value)?;
            // Recompute the private region against the *current* netlist:
            // earlier repairs may have grown new readers into what used to
            // be an exclusive cone.
            for g in exclusive_fanin_region(netlist, net, netlist.topology()) {
                // Dead feeders become constants too: `universe()` skips
                // Const gates, so their (untestable) fault sites leave
                // the universe instead of lingering as dead logic.
                out.replace_with_const(g, false)?;
            }
            out
        }
    };
    Ok(Edited {
        extra_gates: out.logic_gate_count() as i64 - gates_before,
        extra_pins: port_count(&out) - pins_before,
        netlist: out,
    })
}

fn port_count(netlist: &Netlist) -> i64 {
    (netlist.primary_inputs().len() + netlist.primary_outputs().len()) as i64
}

#[cfg(test)]
mod tests {
    use super::*;
    use dft_lint::lint;
    use dft_netlist::circuits::redundant_fixture;
    use dft_netlist::GateKind;
    use dft_sim::{Logic, ThreeValueSim};

    #[test]
    fn expansion_dedups_and_respects_exclusions() {
        let n = redundant_fixture();
        let report = lint(&n);
        let cands = expand_hints(report.diagnostics(), &[]);
        assert!(!cands.is_empty(), "{}", report.to_text());
        let mut keys: Vec<String> = cands.iter().map(|c| c.edit.key()).collect();
        let before = keys.len();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), before, "no duplicate candidates");
        // Excluding everything leaves nothing.
        let none = expand_hints(report.diagnostics(), &keys);
        assert!(none.is_empty());
    }

    #[test]
    fn control_hints_expand_to_both_realizations() {
        let rule = dft_lint::Registry::with_default_rules()
            .rules()
            .find(|r| r.id() == "hard-to-control")
            .unwrap();
        let d =
            Diagnostic::new(rule, GateId::from_index(3), "hard").with_fix(FixHint::ControlPoint {
                net: GateId::from_index(3),
            });
        let cands = expand_hints(&[d], &[]);
        let kinds: Vec<&str> = cands.iter().map(|c| c.edit.kind()).collect();
        assert_eq!(kinds, vec!["control-mux", "degate"]);
    }

    #[test]
    fn fold_edit_preserves_the_live_output() {
        // redundant_fixture: y is provably constant 0; x = XOR(a, b) is
        // live. Folding y must leave x's function untouched.
        let n = redundant_fixture();
        let report = lint(&n);
        let fold = expand_hints(report.diagnostics(), &[])
            .into_iter()
            .find(|c| matches!(c.edit, CandidateEdit::Fold { .. }))
            .expect("fixture yields a fold candidate");
        let edited = apply_edit(&n, fold.edit).unwrap();
        assert!(edited.extra_pins == 0);
        assert!(edited.extra_gates < 0, "folding removes logic");

        let sim_old = ThreeValueSim::new(&n).unwrap();
        let sim_new = ThreeValueSim::new(&edited.netlist).unwrap();
        for v in 0..4u8 {
            let pis = vec![Logic::from(v & 1 == 1), Logic::from(v & 2 == 2)];
            let o = sim_old.outputs(&sim_old.eval(&pis, &[]));
            let n_ = sim_new.outputs(&sim_new.eval(&pis, &[]));
            assert_eq!(o, n_, "input {v:02b}");
        }
    }

    #[test]
    fn fold_shrinks_the_fault_universe() {
        let n = redundant_fixture();
        let report = lint(&n);
        let fold = expand_hints(report.diagnostics(), &[])
            .into_iter()
            .find(|c| matches!(c.edit, CandidateEdit::Fold { .. }))
            .unwrap();
        let edited = apply_edit(&n, fold.edit).unwrap();
        assert!(
            dft_fault::universe(&edited.netlist).len() < dft_fault::universe(&n).len(),
            "constant-folded gates leave the universe"
        );
    }

    #[test]
    fn observe_edit_costs_one_pin() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g = n.add_gate(GateKind::And, &[a, b]).unwrap();
        let h = n.add_gate(GateKind::Or, &[g, a]).unwrap();
        n.mark_output(h, "y").unwrap();
        let edited = apply_edit(&n, CandidateEdit::Observe { net: g }).unwrap();
        assert_eq!(edited.extra_pins, 1);
        assert_eq!(edited.extra_gates, 0);
    }

    #[test]
    fn fold_of_a_primary_input_is_an_error() {
        let n = redundant_fixture();
        let net = n.primary_inputs()[0];
        let err = apply_edit(&n, CandidateEdit::Fold { net, value: false }).unwrap_err();
        assert!(
            matches!(err, EditError::Target(NetlistError::NotALogicGate { gate, .. }) if gate == net),
            "{err:?}"
        );
    }

    #[test]
    fn fold_of_a_constant_is_an_error() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let c = n.add_const(true);
        let g = n.add_gate(GateKind::And, &[a, c]).unwrap();
        n.mark_output(g, "y").unwrap();
        let err = apply_edit(
            &n,
            CandidateEdit::Fold {
                net: c,
                value: true,
            },
        )
        .unwrap_err();
        assert!(
            matches!(err, EditError::Target(NetlistError::NotALogicGate { gate, .. }) if gate == c),
            "{err:?}"
        );
    }

    #[test]
    fn fold_of_a_flip_flop_is_an_error() {
        let n = dft_netlist::circuits::shift_register(3);
        let dff = n.storage_elements()[0];
        let err = apply_edit(
            &n,
            CandidateEdit::Fold {
                net: dff,
                value: false,
            },
        )
        .unwrap_err();
        assert!(
            matches!(err, EditError::Target(NetlistError::NotALogicGate { gate, .. }) if gate == dff),
            "{err:?}"
        );
    }

    #[test]
    fn fold_of_a_foreign_gate_is_an_error() {
        let n = redundant_fixture();
        let net = GateId::from_index(n.gate_count() + 5);
        let err = apply_edit(&n, CandidateEdit::Fold { net, value: true }).unwrap_err();
        assert_eq!(err, EditError::Target(NetlistError::UnknownGate(net)));
    }

    #[test]
    fn scan_convert_is_a_structural_noop() {
        let n = dft_netlist::circuits::shift_register(3);
        let edited = apply_edit(&n, CandidateEdit::ScanConvert).unwrap();
        assert_eq!(edited.extra_gates, 0);
        assert_eq!(edited.extra_pins, 0);
        assert_eq!(edited.netlist.gate_count(), n.gate_count());
    }
}
