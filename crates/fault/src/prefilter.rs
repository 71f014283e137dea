//! Static untestability prefiltering of fault lists.
//!
//! §I-B of the paper counts ~6000 single stuck-at faults for a 1000-gate
//! network and immediately starts shrinking the list (equivalence
//! collapsing takes it to ~3000). This module shrinks it further *before
//! any simulation or search runs*: the static implication engine of
//! `dft-implic` proves some faults untestable — unexcitable nets, or
//! effects that every sensitized path provably blocks — and those faults
//! need never enter a PPSFP campaign or an ATPG queue. A proven-redundant
//! fault has an empty syndrome by construction, so dropping it changes no
//! result, only the work performed.
//!
//! The analysis is sound but incomplete: every fault it flags is really
//! untestable (the soundness proptests in `dft-implic` cross-check this
//! against search ATPG), but some untestable faults slip through and
//! still cost a full search to refute.

use dft_implic::{ImplicationEngine, UntestableReason};
use dft_netlist::Netlist;

use crate::Fault;

/// The result of statically prefiltering a fault list: per-fault
/// verdicts plus the surviving (possibly-testable) sublist.
#[derive(Clone, Debug)]
pub struct Prefilter {
    faults: Vec<Fault>,
    /// Aligned with `faults`: `Some(reason)` iff statically proven
    /// untestable.
    verdicts: Vec<Option<UntestableReason>>,
}

impl Prefilter {
    /// The static verdict for `fault_index` — `Some` iff proven
    /// untestable, with the witness explaining why.
    ///
    /// # Panics
    ///
    /// Panics if `fault_index` is out of range.
    #[must_use]
    pub fn verdict(&self, fault_index: usize) -> Option<&UntestableReason> {
        self.verdicts[fault_index].as_ref()
    }

    /// Whether `fault_index` was proven untestable.
    ///
    /// # Panics
    ///
    /// Panics if `fault_index` is out of range.
    #[must_use]
    pub fn is_untestable(&self, fault_index: usize) -> bool {
        self.verdicts[fault_index].is_some()
    }

    /// The faults that survived the filter (not provably untestable), in
    /// universe order — the list worth handing to a simulator or ATPG.
    #[must_use]
    pub fn testable_faults(&self) -> Vec<Fault> {
        self.faults
            .iter()
            .zip(&self.verdicts)
            .filter(|(_, v)| v.is_none())
            .map(|(&f, _)| f)
            .collect()
    }

    /// Number of faults proven untestable.
    #[must_use]
    pub fn untestable_count(&self) -> usize {
        self.verdicts.iter().filter(|v| v.is_some()).count()
    }
}

/// Runs the static implication engine over `netlist` and classifies every
/// fault in `faults` as possibly-testable or provably-untestable.
///
/// Builds a fresh [`ImplicationEngine`] internally;
/// callers holding one already can use [`prefilter_with`].
#[must_use]
pub fn prefilter_untestable(netlist: &Netlist, faults: &[Fault]) -> Prefilter {
    let engine = ImplicationEngine::new(netlist);
    prefilter_with(&engine, faults)
}

/// Like [`prefilter_untestable`], reusing an existing engine (learning is
/// the expensive part; amortize it across consumers). The verdicts come
/// from one [`ImplicationEngine::faults_untestable`] batch: one
/// propagation per distinct excitation literal, not one per fault.
#[must_use]
pub fn prefilter_with(engine: &ImplicationEngine<'_>, faults: &[Fault]) -> Prefilter {
    let sites: Vec<_> = faults
        .iter()
        .map(|f| (f.site.gate, f.site.pin, f.stuck))
        .collect();
    let verdicts = engine.faults_untestable(&sites);
    Prefilter {
        faults: faults.to_vec(),
        verdicts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{simulate, universe};
    use dft_netlist::circuits::{c17, redundant_fixture};
    use dft_sim::PatternSet;

    fn exhaustive(width: usize) -> PatternSet {
        PatternSet::exhaustive(width, 0..1 << width)
    }

    #[test]
    fn c17_is_fully_testable_so_nothing_is_filtered() {
        let n = c17();
        let faults = universe(&n);
        let pf = prefilter_untestable(&n, &faults);
        assert_eq!(pf.untestable_count(), 0);
        assert_eq!(pf.testable_faults(), faults);
    }

    #[test]
    fn redundant_fixture_loses_faults_and_no_detectable_ones() {
        let n = redundant_fixture();
        let faults = universe(&n);
        let pf = prefilter_untestable(&n, &faults);
        assert!(
            pf.untestable_count() > 0,
            "the fixture exists to be filtered"
        );
        // Soundness spot-check by exhaustive simulation: every filtered
        // fault is genuinely undetectable.
        let r = simulate(&n, &exhaustive(n.primary_inputs().len()), &faults).unwrap();
        for (i, f) in faults.iter().enumerate() {
            if pf.is_untestable(i) {
                assert!(
                    r.first_detected[i].is_none(),
                    "{f} was filtered but exhaustive simulation detects it"
                );
            }
        }
    }

    #[test]
    fn witnesses_are_reported() {
        let n = redundant_fixture();
        let faults = universe(&n);
        let pf = prefilter_untestable(&n, &faults);
        for (i, f) in faults.iter().enumerate() {
            if let Some(reason) = pf.verdict(i) {
                // Displayable witness for diagnostics.
                assert!(!format!("{f}: {reason}").is_empty());
            }
        }
    }
}
