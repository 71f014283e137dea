//! Random, weighted-random and exhaustive pattern generation.
//!
//! §IV-A of the paper: with scan in place, "adaptive random test
//! generation \[87\], \[95\], \[98\] are again viable approaches"; §V-A adds
//! that "combinational logic is highly susceptible to random patterns" —
//! with the PLA exception quantified in experiment E11.

use dft_fault::{DetectionResult, Fault, Ppsfp};
use dft_netlist::{LevelizeError, Netlist};
use dft_sim::PatternSet;
use dft_testability::analyze;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Result of a random-generation campaign.
#[derive(Clone, Debug)]
pub struct RandomAtpgOutcome {
    /// The patterns that were applied (in application order).
    pub patterns: PatternSet,
    /// Detection results over the supplied fault list.
    pub detection: DetectionResult,
}

impl RandomAtpgOutcome {
    /// Final fault coverage.
    #[must_use]
    pub fn coverage(&self) -> f64 {
        self.detection.coverage()
    }
}

/// Applies up to `budget` uniform random patterns (with fault dropping),
/// stopping early once `target_coverage` is reached.
///
/// Patterns are generated in wide 256-pattern chunks, so when
/// stopping at a partial coverage target a few more than the exact
/// stopping point may be applied; a run that detects *every* fault is
/// trimmed to the last useful pattern. Deterministic in `seed`.
///
/// # Errors
///
/// Returns [`LevelizeError`] on combinational cycles.
pub fn random_atpg(
    netlist: &Netlist,
    faults: &[Fault],
    budget: usize,
    target_coverage: f64,
    seed: u64,
) -> Result<RandomAtpgOutcome, LevelizeError> {
    let weights = vec![0.5; netlist.primary_inputs().len()];
    weighted_random_atpg(netlist, faults, &weights, budget, target_coverage, seed)
}

/// Patterns graded per engine call during random generation: 4 blocks
/// of 64, exactly the point where [`Ppsfp`] switches to 256-lane wide
/// words — one levelized baseline sweep and one event propagation per
/// fault then cover the whole chunk. First detections
/// are independent of the chunk size (the engine reports the global
/// first within the set); only the coverage-target check granularity
/// changes.
const RANDOM_CHUNK: usize = 256;

/// Weighted-random generation (the paper's reference \[95\]): input *i* is
/// driven to 1 with probability `weights[i]`.
///
/// # Errors
///
/// Returns [`LevelizeError`] on combinational cycles.
///
/// # Panics
///
/// Panics if `weights.len()` differs from the input count.
pub fn weighted_random_atpg(
    netlist: &Netlist,
    faults: &[Fault],
    weights: &[f64],
    budget: usize,
    target_coverage: f64,
    seed: u64,
) -> Result<RandomAtpgOutcome, LevelizeError> {
    assert_eq!(weights.len(), netlist.primary_inputs().len());
    let mut rng = StdRng::seed_from_u64(seed);
    let mut applied = PatternSet::new(weights.len());
    let mut first_detected: Vec<Option<usize>> = vec![None; faults.len()];
    let mut live: Vec<usize> = (0..faults.len()).collect();
    // Compile the PPSFP engine once for the whole campaign; each
    // 64-pattern batch is then a single `run` with no recompilation.
    let engine = Ppsfp::new(netlist)?;

    while applied.len() < budget && !live.is_empty() {
        let chunk = RANDOM_CHUNK.min(budget - applied.len());
        let base = applied.len();
        let batch = PatternSet::weighted_random(weights, chunk, &mut rng);
        grade_and_drop(
            &engine,
            &batch,
            base,
            faults,
            &mut live,
            &mut first_detected,
        );
        applied.extend_from(&batch);
        let covered = (faults.len() - live.len()) as f64 / faults.len().max(1) as f64;
        if covered >= target_coverage {
            break;
        }
    }

    // Full coverage: everything past the last first-detection is dead
    // weight from the wide chunk — trim it so a fast-falling circuit
    // isn't padded out to the chunk boundary.
    if live.is_empty() && !faults.is_empty() {
        let useful = first_detected.iter().flatten().max().map_or(0, |&p| p + 1);
        if useful < applied.len() {
            let rows: Vec<Vec<bool>> = (0..useful).map(|p| applied.get(p)).collect();
            applied = PatternSet::from_rows(weights.len(), &rows);
        }
    }

    Ok(RandomAtpgOutcome {
        detection: DetectionResult {
            first_detected,
            pattern_count: applied.len(),
        },
        patterns: applied,
    })
}

/// Grades `batch` — patterns `base..base + batch.len()` of a campaign —
/// against the still-undetected faults `live` (indices into `faults`),
/// records their first detections and drops the detected ones.
fn grade_and_drop(
    engine: &Ppsfp<'_>,
    batch: &PatternSet,
    base: usize,
    faults: &[Fault],
    live: &mut Vec<usize>,
    first_detected: &mut [Option<usize>],
) {
    let live_faults: Vec<Fault> = live.iter().map(|&i| faults[i]).collect();
    let r = engine.run(batch, &live_faults);
    let mut detections = r.first_detected.into_iter();
    live.retain(|&fi| match detections.next().flatten() {
        Some(p) => {
            first_detected[fi] = Some(base + p);
            false
        }
        None => true,
    });
}

/// Derives per-input weights from SCOAP controllabilities: inputs that
/// feed logic needing mostly 1s get a higher 1-probability. A cheap
/// stand-in for the adaptive schemes of \[87\]/\[95\].
///
/// # Errors
///
/// Returns [`LevelizeError`] on combinational cycles.
pub fn scoap_weights(netlist: &Netlist) -> Result<Vec<f64>, LevelizeError> {
    let report = analyze(netlist)?;
    let fanout = netlist.topology().readers();
    Ok(netlist
        .primary_inputs()
        .iter()
        .map(|&pi| {
            // Look at what the input feeds: AND-ish consumers want 1s to
            // open paths, OR-ish want 0s. Approximate with the consumer
            // gates' output controllability imbalance.
            let mut want1 = 1.0f64;
            let mut want0 = 1.0f64;
            for &(reader, _) in &fanout[pi.index()] {
                let m = report.measure(reader);
                // Harder-to-1 consumers pull the weight toward 1.
                want1 += f64::from(m.cc1.min(1_000));
                want0 += f64::from(m.cc0.min(1_000));
            }
            (want1 / (want0 + want1)).clamp(0.1, 0.9)
        })
        .collect())
}

/// Exhaustive patterns graded per [`Ppsfp`] call: 64 blocks, so the
/// engine runs its 256-lane path and a fault detected early stops
/// costing work at the next chunk boundary.
const EXHAUSTIVE_CHUNK: usize = 4096;

/// Applies every one of the 2ⁿ input patterns (n ≤ 30) with fault
/// dropping — "exhaustive" functional testing, §I-B. Pattern *p* drives
/// input *i* to bit *i* of *p*; the sequence is graded by [`Ppsfp`] in
/// consecutive chunks, dropping detected faults between chunks, so the
/// result equals [`dft_fault::simulate`] over the explicit sequence.
///
/// # Errors
///
/// Returns [`LevelizeError`] on combinational cycles.
///
/// # Panics
///
/// Panics if the input count exceeds
/// [`dft_sim::exhaustive::MAX_EXHAUSTIVE_INPUTS`].
pub fn exhaustive_atpg(
    netlist: &Netlist,
    faults: &[Fault],
) -> Result<DetectionResult, LevelizeError> {
    let n = netlist.primary_inputs().len();
    let total =
        dft_sim::exhaustive::block_count(n) as usize * dft_sim::exhaustive::lanes(n) as usize;
    let engine = Ppsfp::new(netlist)?;
    let mut first_detected: Vec<Option<usize>> = vec![None; faults.len()];
    let mut live: Vec<usize> = (0..faults.len()).collect();
    for base in (0..total).step_by(EXHAUSTIVE_CHUNK) {
        if live.is_empty() {
            break;
        }
        let rows: Vec<Vec<bool>> = (base..total.min(base + EXHAUSTIVE_CHUNK))
            .map(|p| (0..n).map(|i| p >> i & 1 == 1).collect())
            .collect();
        let batch = PatternSet::from_rows(n, &rows);
        grade_and_drop(
            &engine,
            &batch,
            base,
            faults,
            &mut live,
            &mut first_detected,
        );
    }
    Ok(DetectionResult {
        first_detected,
        pattern_count: total,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dft_fault::universe;
    use dft_netlist::circuits::random_pattern_resistant_pla;
    use dft_netlist::circuits::{c17, majority, random_combinational};

    #[test]
    fn random_covers_easy_logic_quickly() {
        let n = c17();
        let faults = universe(&n);
        let r = random_atpg(&n, &faults, 512, 1.0, 1).unwrap();
        assert_eq!(r.coverage(), 1.0);
        assert!(r.patterns.len() <= 192, "c17 should fall fast");
    }

    #[test]
    fn early_stop_at_target_coverage() {
        let n = random_combinational(10, 80, 2);
        let faults = universe(&n);
        let partial = random_atpg(&n, &faults, 10_000, 0.5, 3).unwrap();
        let full = random_atpg(&n, &faults, 10_000, 1.0, 3).unwrap();
        assert!(partial.patterns.len() <= full.patterns.len());
        assert!(partial.coverage() >= 0.5);
    }

    #[test]
    fn pla_resists_random_patterns() {
        // The paper's §V-A: a 20-input AND term activates with
        // probability 2⁻²⁰ — random patterns all but never test it.
        let pla = random_pattern_resistant_pla(22, 6, 20, 2, 4).synthesize("hard_pla");
        let faults = universe(&pla);
        let r = random_atpg(&pla, &faults, 2_000, 1.0, 5).unwrap();
        assert!(
            r.coverage() < 0.9,
            "2000 random patterns must miss wide AND terms (got {})",
            r.coverage()
        );
    }

    #[test]
    fn exhaustive_matches_random_limit_on_small_circuit() {
        let n = majority();
        let faults = universe(&n);
        let ex = exhaustive_atpg(&n, &faults).unwrap();
        assert_eq!(ex.coverage(), 1.0);
        assert_eq!(ex.pattern_count, 8);
    }

    /// Pattern p of the exhaustive sequence is the bits of p, so the
    /// serial reference over that explicit set must report the same
    /// first detections: with tail lanes (3 inputs), one full block
    /// (6 inputs) and a space that spans several chunks (14 inputs).
    #[test]
    fn exhaustive_matches_serial_over_the_explicit_sequence() {
        for n in [
            majority(),
            random_combinational(6, 40, 3),
            random_combinational(14, 120, 5),
        ] {
            let k = n.primary_inputs().len();
            let rows: Vec<Vec<bool>> = (0..1usize << k)
                .map(|p| (0..k).map(|i| p >> i & 1 == 1).collect())
                .collect();
            let patterns = PatternSet::from_rows(k, &rows);
            let faults = universe(&n);
            let reference = dft_fault::simulate(&n, &patterns, &faults).unwrap();
            assert!(reference.detected_count() > 0, "{}", n.name());
            assert_eq!(
                exhaustive_atpg(&n, &faults).unwrap(),
                reference,
                "{}",
                n.name()
            );
        }
    }

    #[test]
    fn scoap_weights_are_probabilities() {
        let n = random_combinational(8, 60, 9);
        let w = scoap_weights(&n).unwrap();
        assert_eq!(w.len(), 8);
        assert!(w.iter().all(|&p| (0.1..=0.9).contains(&p)));
    }

    #[test]
    fn weighted_random_beats_uniform_on_and_dominated_logic() {
        // A wide AND cone: uniform random hits the all-1 activation with
        // probability 2⁻ⁿ; weighting inputs toward 1 finds it faster.
        use dft_netlist::{GateKind, Netlist};
        let mut n = Netlist::new("wide_and");
        let ins: Vec<_> = (0..12).map(|i| n.add_input(format!("x{i}"))).collect();
        let g = n.add_gate(GateKind::And, &ins).unwrap();
        n.mark_output(g, "y").unwrap();
        let faults = universe(&n);
        let uniform = random_atpg(&n, &faults, 1_000, 1.0, 7).unwrap();
        let weighted = weighted_random_atpg(&n, &faults, &[0.9; 12], 1_000, 1.0, 7).unwrap();
        assert!(weighted.coverage() >= uniform.coverage());
        assert!(weighted.coverage() > 0.9);
    }
}
