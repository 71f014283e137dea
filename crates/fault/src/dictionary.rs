//! Fault dictionaries: precomputed response differences for diagnosis.
//!
//! §III-D of the paper worries about *resolution* — once a board fails,
//! which part do you replace? A fault dictionary inverts fault
//! simulation: for every modelled fault, record which (pattern, output)
//! observations it corrupts; at repair time, match the observed failures
//! back to the candidates. (Equivalence classes are indistinguishable by
//! construction — the dictionary returns the whole class.)

use std::collections::BTreeSet;

use dft_netlist::{LevelizeError, Netlist};
use dft_sim::PatternSet;

use crate::{Fault, Ppsfp};

/// A fault dictionary over a fixed pattern set.
#[derive(Clone, Debug)]
pub struct FaultDictionary {
    faults: Vec<Fault>,
    /// Per fault: the sorted set of (pattern, output) mismatches.
    syndromes: Vec<BTreeSet<(u32, u16)>>,
    pattern_count: usize,
}

impl FaultDictionary {
    /// Builds the dictionary by fault-simulating every fault against
    /// `patterns` (no dropping — the full syndrome is recorded) with
    /// [`Ppsfp::run_syndromes`], so it gets the fast engine's cone
    /// restriction and threading.
    ///
    /// Before any simulation runs, the static implication engine
    /// ([`crate::prefilter_untestable`]) drops faults it can prove
    /// untestable: their syndrome is empty by construction, so skipping
    /// them changes no entry of the dictionary — only the work done
    /// building it.
    ///
    /// # Errors
    ///
    /// Returns [`LevelizeError`] on combinational cycles.
    ///
    /// # Panics
    ///
    /// Panics if the pattern width disagrees with the netlist, or if the
    /// netlist has 65,535 or more primary outputs: a syndrome stores
    /// output positions as `u16` ([`Ppsfp::run_syndromes_with`]).
    pub fn build(
        netlist: &Netlist,
        patterns: &PatternSet,
        faults: &[Fault],
    ) -> Result<Self, LevelizeError> {
        let pf = crate::prefilter_untestable(netlist, faults);
        let mut computed = Ppsfp::new(netlist)?
            .run_syndromes(patterns, &pf.testable_faults())
            .into_iter();
        let syndromes = (0..faults.len())
            .map(|i| {
                if pf.is_untestable(i) {
                    BTreeSet::new()
                } else {
                    computed.next().expect("one syndrome per survivor")
                }
            })
            .collect();
        Ok(FaultDictionary {
            faults: faults.to_vec(),
            syndromes,
            pattern_count: patterns.len(),
        })
    }

    /// The fault list the dictionary covers.
    #[must_use]
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Number of patterns the dictionary was built over.
    #[must_use]
    pub fn pattern_count(&self) -> usize {
        self.pattern_count
    }

    /// The full syndrome of one fault.
    ///
    /// # Panics
    ///
    /// Panics if `fault_index` is out of range.
    #[must_use]
    pub fn syndrome(&self, fault_index: usize) -> &BTreeSet<(u32, u16)> {
        &self.syndromes[fault_index]
    }

    /// Exact-match diagnosis: the faults whose recorded syndrome equals
    /// the observed failure set. Equivalent faults return together.
    #[must_use]
    pub fn diagnose_exact(&self, observed: &BTreeSet<(u32, u16)>) -> Vec<Fault> {
        self.syndromes
            .iter()
            .zip(&self.faults)
            .filter(|(syn, _)| *syn == observed)
            .map(|(_, &f)| f)
            .collect()
    }

    /// Nearest-match diagnosis for noisy observations: faults ranked by
    /// symmetric-difference distance to the observed set (best first,
    /// capped at `k`).
    #[must_use]
    pub fn diagnose_nearest(
        &self,
        observed: &BTreeSet<(u32, u16)>,
        k: usize,
    ) -> Vec<(Fault, usize)> {
        let mut scored: Vec<(Fault, usize)> = self
            .syndromes
            .iter()
            .zip(&self.faults)
            .map(|(syn, &f)| {
                let dist = syn.symmetric_difference(observed).count();
                (f, dist)
            })
            .collect();
        scored.sort_by_key(|&(f, d)| (d, f.site.gate, f.site.pin, f.stuck));
        scored.truncate(k);
        scored
    }

    /// Diagnostic resolution: the number of distinct syndromes divided by
    /// the number of detected faults (1.0 = every detected fault is
    /// uniquely identifiable).
    #[must_use]
    pub fn resolution(&self) -> f64 {
        let detected: Vec<&BTreeSet<(u32, u16)>> =
            self.syndromes.iter().filter(|s| !s.is_empty()).collect();
        if detected.is_empty() {
            return 1.0;
        }
        let mut unique: Vec<&BTreeSet<(u32, u16)>> = detected.clone();
        unique.sort();
        unique.dedup();
        unique.len() as f64 / detected.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::CollapsedUniverse;
    use crate::universe;
    use dft_netlist::circuits::c17;

    fn exhaustive() -> PatternSet {
        let rows: Vec<Vec<bool>> = (0..32u8)
            .map(|v| (0..5).map(|i| v >> i & 1 == 1).collect())
            .collect();
        PatternSet::from_rows(5, &rows)
    }

    #[test]
    fn injected_fault_is_diagnosed_to_its_class() {
        let n = c17();
        let faults = universe(&n);
        let dict = FaultDictionary::build(&n, &exhaustive(), &faults).unwrap();
        let col = CollapsedUniverse::new(&n);
        for (fi, _) in faults.iter().enumerate().step_by(5) {
            let observed = dict.syndrome(fi).clone();
            let candidates = dict.diagnose_exact(&observed);
            assert!(
                candidates.contains(&faults[fi]),
                "true fault missing from diagnosis"
            );
            // Everything diagnosed together must be detection-equivalent:
            // in particular the whole equivalence class matches.
            let rep = col.representative(fi);
            let class: Vec<Fault> = faults
                .iter()
                .enumerate()
                .filter(|&(j, _)| col.representative(j) == rep)
                .map(|(_, &f)| f)
                .collect();
            for f in class {
                assert!(candidates.contains(&f), "class member {f} missing");
            }
        }
    }

    #[test]
    fn nearest_match_tolerates_a_flipped_observation() {
        let n = c17();
        let faults = universe(&n);
        let dict = FaultDictionary::build(&n, &exhaustive(), &faults).unwrap();
        let fi = 7;
        let mut observed = dict.syndrome(fi).clone();
        // Corrupt the observation: drop one entry (tester glitch).
        let first = *observed.iter().next().expect("nonempty syndrome");
        observed.remove(&first);
        let ranked = dict.diagnose_nearest(&observed, 3);
        assert!(
            ranked.iter().any(|&(f, _)| f == faults[fi]),
            "true fault not in top 3: {ranked:?}"
        );
        assert!(ranked[0].1 <= 2);
    }

    #[test]
    fn resolution_reflects_equivalence_classes() {
        let n = c17();
        let faults = universe(&n);
        let dict = FaultDictionary::build(&n, &exhaustive(), &faults).unwrap();
        let col = CollapsedUniverse::new(&n);
        // Distinct syndromes can't exceed the number of classes…
        let res = dict.resolution();
        assert!(res <= 1.0);
        assert!(
            res <= col.class_count() as f64 / faults.len() as f64 + 1e-9,
            "resolution {} exceeds class bound",
            res
        );
        // …and exhaustive patterns distinguish a healthy fraction.
        assert!(res > 0.4, "resolution {res}");
    }

    #[test]
    fn prefiltered_build_matches_brute_force_on_redundant_logic() {
        // The fixture has statically-provable untestable faults; the
        // prefiltered build path must produce exactly the syndromes a
        // full simulation would (empty for the filtered faults).
        let n = dft_netlist::circuits::redundant_fixture();
        let faults = universe(&n);
        let rows: Vec<Vec<bool>> = (0..4u8)
            .map(|v| vec![v & 1 == 1, v >> 1 & 1 == 1])
            .collect();
        let patterns = PatternSet::from_rows(2, &rows);
        let dict = FaultDictionary::build(&n, &patterns, &faults).unwrap();
        let engine = crate::Ppsfp::new(&n).unwrap();
        let brute = engine.run_syndromes(&patterns, &faults);
        let pf = crate::prefilter_untestable(&n, &faults);
        assert!(
            pf.untestable_count() > 0,
            "fixture must exercise the skip path"
        );
        for (i, expected) in brute.iter().enumerate() {
            assert_eq!(dict.syndrome(i), expected, "fault {i} syndrome differs");
        }
    }

    #[test]
    fn empty_observation_diagnoses_only_undetected_faults() {
        let n = c17();
        let faults = universe(&n);
        let dict = FaultDictionary::build(&n, &exhaustive(), &faults).unwrap();
        let candidates = dict.diagnose_exact(&BTreeSet::new());
        // c17 is fully testable: nothing has an empty syndrome.
        assert!(candidates.is_empty());
    }
}
