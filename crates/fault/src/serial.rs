//! Pattern-parallel single-fault simulation (the reference engine).
//!
//! # Detection semantics: first detection vs. all detections
//!
//! Every combinational engine in this crate reports **first detection**:
//! `first_detected[f]` is the earliest pattern whose response differs at
//! any primary output. The engines differ only in how much work they do
//! to get there:
//!
//! * this serial engine and [`crate::ppsfp`] *drop* a detected fault and
//!   never look at later patterns (dropping is optional here, see
//!   [`SerialOptions`] — the result is identical either way, only the
//!   work changes);
//! * [`crate::FaultDictionary`] is the consumer that genuinely needs
//!   **all** detections — every `(pattern, output)` mismatch — so it is
//!   built from [`crate::Ppsfp::run_syndromes`], which never drops.

use dft_netlist::{LevelizeError, Netlist};
use dft_obs::{Collector, Obs};
use dft_sim::PatternSet;

use crate::{Fault, FaultyView};

/// Tuning knobs for the serial engine.
///
/// `#[non_exhaustive]`: construct via [`Default`] and the `with_*`
/// builders so new knobs can be added without breaking downstream
/// crates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub struct SerialOptions {
    /// Stop simulating a fault once one pattern detects it (default
    /// `true`). The [`DetectionResult`] is identical either way — first
    /// detection is recorded regardless — but with dropping off the
    /// engine performs the full faults × blocks work, which makes it the
    /// honest baseline when measuring what dropping and cone restriction
    /// save.
    pub fault_dropping: bool,
}

impl Default for SerialOptions {
    fn default() -> Self {
        SerialOptions {
            fault_dropping: true,
        }
    }
}

impl SerialOptions {
    /// Defaults (same as [`Default`], spelled for builder chains).
    #[must_use]
    pub fn new() -> Self {
        SerialOptions::default()
    }

    /// Sets [`SerialOptions::fault_dropping`].
    #[must_use]
    pub fn with_fault_dropping(mut self, fault_dropping: bool) -> Self {
        self.fault_dropping = fault_dropping;
        self
    }
}

/// Per-fault detection outcome of a fault-simulation run.
///
/// Fault *f* is detected by pattern *p* if any primary output differs
/// between the good machine and the machine with *f* injected (the
/// paper's test criterion, Fig. 1). `first_detected[f]` records the
/// earliest such *p*.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DetectionResult {
    /// For each fault (in input order): the first detecting pattern.
    pub first_detected: Vec<Option<usize>>,
    /// Number of patterns simulated.
    pub pattern_count: usize,
}

impl DetectionResult {
    /// Number of detected faults.
    #[must_use]
    pub fn detected_count(&self) -> usize {
        self.first_detected.iter().filter(|d| d.is_some()).count()
    }

    /// Fault coverage: detected / total (the paper's §I-A definition —
    /// "the number of faults that are tested divided by the number of
    /// faults that are assumed").
    #[must_use]
    pub fn coverage(&self) -> f64 {
        if self.first_detected.is_empty() {
            1.0
        } else {
            self.detected_count() as f64 / self.first_detected.len() as f64
        }
    }

    /// Indices of faults that no pattern detected.
    #[must_use]
    pub fn undetected(&self) -> Vec<usize> {
        self.first_detected
            .iter()
            .enumerate()
            .filter_map(|(i, d)| d.is_none().then_some(i))
            .collect()
    }

    /// Coverage as a function of pattern count: element *k* is the
    /// fraction of faults detected by the first *k+1* patterns. Used for
    /// the random-pattern coverage curves of experiment E11.
    #[must_use]
    pub fn coverage_curve(&self) -> Vec<f64> {
        let total = self.first_detected.len().max(1) as f64;
        let mut per_pattern = vec![0usize; self.pattern_count];
        for d in self.first_detected.iter().flatten() {
            per_pattern[*d] += 1;
        }
        let mut acc = 0usize;
        per_pattern
            .iter()
            .map(|&k| {
                acc += k;
                acc as f64 / total
            })
            .collect()
    }
}

/// Fault-simulates `faults` against `patterns`, pattern-parallel
/// (64 lanes per word), fault-serial.
///
/// Storage elements are held at state 0 in every frame — use
/// [`crate::sequential`] for true multi-cycle behaviour, or extract a
/// combinational test view with `dft-scan` first (the paper's whole
/// program).
///
/// # Errors
///
/// Returns [`LevelizeError`] on combinational cycles.
///
/// # Panics
///
/// Panics if the pattern width disagrees with the netlist.
pub fn simulate(
    netlist: &Netlist,
    patterns: &PatternSet,
    faults: &[Fault],
) -> Result<DetectionResult, LevelizeError> {
    simulate_observed(netlist, patterns, faults, SerialOptions::default(), None)
}

/// [`simulate`] with explicit [`SerialOptions`], feeding telemetry to an
/// optional collector — the uniform observed entry point every engine in
/// this crate exposes.
///
/// Opens a `fault_sim.serial` span and flushes effort counters once per
/// run (`faults`, `patterns`, `good_evals`, `faulty_evals`, `detected`,
/// `dropped`); the hot loop itself only bumps local integers, so passing
/// `None` costs nothing measurable.
///
/// # Errors
///
/// Returns [`LevelizeError`] on combinational cycles.
///
/// # Panics
///
/// Panics if the pattern width disagrees with the netlist.
pub fn simulate_observed(
    netlist: &Netlist,
    patterns: &PatternSet,
    faults: &[Fault],
    options: SerialOptions,
    obs: Option<&mut dyn Collector>,
) -> Result<DetectionResult, LevelizeError> {
    let mut obs = Obs::new(obs);
    obs.enter("fault_sim.serial");
    let view = FaultyView::new(netlist)?;
    let state = vec![0u64; view.storage().len()];
    let outputs: Vec<_> = netlist.primary_outputs().iter().map(|&(g, _)| g).collect();

    let nb = patterns.block_count();
    // Good-machine responses per block, only at the primary outputs.
    let good: Vec<Vec<u64>> = (0..nb)
        .map(|b| {
            let vals = view.eval_block(patterns.block(b), &state, None);
            outputs.iter().map(|&g| vals[g.index()]).collect()
        })
        .collect();

    let mut faulty_evals = 0u64;
    let mut dropped = 0u64;
    let mut first_detected = vec![None; faults.len()];
    let mut live: Vec<usize> = (0..faults.len()).collect();
    for (b, good) in good.iter().enumerate() {
        if live.is_empty() {
            break;
        }
        let lanes = patterns.lanes_in_block(b);
        let mask = if lanes == 64 {
            u64::MAX
        } else {
            (1u64 << lanes) - 1
        };
        live.retain(|&fi| {
            let vals = view.eval_block(patterns.block(b), &state, Some(faults[fi]));
            faulty_evals += 1;
            let diff = outputs
                .iter()
                .zip(good)
                .fold(0u64, |d, (&gate, &g)| d | ((vals[gate.index()] ^ g) & mask));
            if diff == 0 {
                return true;
            }
            if first_detected[fi].is_none() {
                first_detected[fi] = Some(b * 64 + diff.trailing_zeros() as usize);
            }
            if options.fault_dropping {
                dropped += 1;
                false
            } else {
                true
            }
        });
    }

    let result = DetectionResult {
        first_detected,
        pattern_count: patterns.len(),
    };
    obs.count("faults", faults.len() as u64);
    obs.count("patterns", patterns.len() as u64);
    obs.count("good_evals", nb as u64);
    obs.count("faulty_evals", faulty_evals);
    obs.count("detected", result.detected_count() as u64);
    obs.count("dropped", dropped);
    obs.gauge("coverage", result.coverage());
    obs.exit();
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe;
    use dft_netlist::circuits::{c17, full_adder, majority};
    use dft_netlist::{GateKind, Netlist, PortRef};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn exhaustive_patterns(n: usize) -> PatternSet {
        PatternSet::exhaustive(n, 0..1 << n)
    }

    #[test]
    fn fig1_pattern_01_tests_a_stuck_at_1() {
        let mut n = Netlist::new("fig1");
        let a = n.add_input("A");
        let b = n.add_input("B");
        let c = n.add_gate(GateKind::And, &[a, b]).unwrap();
        n.mark_output(c, "C").unwrap();
        let fault = Fault::stuck_at_1(PortRef::input(c, 0));
        // Pattern (A=0, B=1) is a test; (A=1, B=1) is not.
        let p = PatternSet::from_rows(2, &[vec![true, true], vec![false, true]]);
        let r = simulate(&n, &p, &[fault]).unwrap();
        assert_eq!(r.first_detected, vec![Some(1)]);
    }

    #[test]
    fn c17_exhaustive_coverage_is_complete() {
        let n = c17();
        let faults = universe(&n);
        let r = simulate(&n, &exhaustive_patterns(5), &faults).unwrap();
        assert_eq!(r.coverage(), 1.0, "undetected: {:?}", r.undetected());
    }

    #[test]
    fn full_adder_exhaustive_coverage_is_complete() {
        let n = full_adder();
        let faults = universe(&n);
        let r = simulate(&n, &exhaustive_patterns(3), &faults).unwrap();
        assert_eq!(r.coverage(), 1.0);
    }

    #[test]
    fn dropping_does_not_change_the_result() {
        let n = c17();
        let faults = universe(&n);
        let p = exhaustive_patterns(5);
        let a = simulate(&n, &p, &faults).unwrap();
        let b = simulate_observed(
            &n,
            &p,
            &faults,
            SerialOptions::new().with_fault_dropping(false),
            None,
        )
        .unwrap();
        assert_eq!(a, b, "dropping is a work optimization, not a semantic");
    }

    #[test]
    fn no_patterns_detect_nothing() {
        let n = majority();
        let faults = universe(&n);
        let p = PatternSet::new(3);
        let r = simulate(&n, &p, &faults).unwrap();
        assert_eq!(r.detected_count(), 0);
        assert_eq!(r.coverage(), 0.0);
    }

    #[test]
    fn first_detected_is_earliest() {
        let n = majority();
        let faults = universe(&n);
        let p = exhaustive_patterns(3);
        let r = simulate(&n, &p, &faults).unwrap();
        // Re-simulate each fault against prefixes to confirm minimality
        // for a few samples.
        for (fi, d) in r.first_detected.iter().enumerate().take(6) {
            let d = d.expect("maj3 is fully testable");
            if d > 0 {
                let prefix_rows: Vec<Vec<bool>> = (0..d).map(|i| p.get(i)).collect();
                let prefix = PatternSet::from_rows(3, &prefix_rows);
                let rr = simulate(&n, &prefix, &[faults[fi]]).unwrap();
                assert_eq!(rr.first_detected[0], None, "fault {fi} detected earlier");
            }
        }
    }

    #[test]
    fn coverage_curve_is_monotone_and_ends_at_coverage() {
        let n = c17();
        let faults = universe(&n);
        let mut rng = StdRng::seed_from_u64(5);
        let p = PatternSet::random(5, 40, &mut rng);
        let r = simulate(&n, &p, &faults).unwrap();
        let curve = r.coverage_curve();
        assert_eq!(curve.len(), 40);
        for w in curve.windows(2) {
            assert!(w[1] >= w[0]);
        }
        assert!((curve[39] - r.coverage()).abs() < 1e-12);
    }

    #[test]
    fn undetectable_redundant_fault_is_reported() {
        // y = a OR (a AND b): the AND's contribution is redundant when a=1,
        // so AND output s-a-0 is undetectable.
        let mut n = Netlist::new("redundant");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g = n.add_gate(GateKind::And, &[a, b]).unwrap();
        let y = n.add_gate(GateKind::Or, &[a, g]).unwrap();
        n.mark_output(y, "y").unwrap();
        let fault = Fault::stuck_at_0(PortRef::output(g));
        let r = simulate(&n, &exhaustive_patterns(2), &[fault]).unwrap();
        assert_eq!(r.first_detected, vec![None]);
        assert_eq!(r.undetected(), vec![0]);
    }
}
