//! Test-set compaction.
//!
//! §IV of the paper notes scan's "apparent disadvantage … the
//! serialization of the test": every pattern costs a full chain shift, so
//! pattern count directly multiplies test time (experiment E9 measures
//! it). Compaction fights back: merge compatible cubes statically, then
//! drop patterns that detect nothing new in a reverse-order pass.

use dft_fault::{Fault, Ppsfp};
use dft_netlist::{LevelizeError, Netlist};
use dft_sim::PatternSet;

use crate::podem::TestCube;

/// Greedy static merging of compatible cubes (first-fit).
///
/// Cubes with non-conflicting care bits are merged; the result is a
/// smaller cube list covering the same deterministic objectives.
#[must_use]
pub fn merge_cubes(cubes: &[TestCube]) -> Vec<TestCube> {
    let mut merged: Vec<TestCube> = Vec::new();
    // Densest cubes first: they are the hardest to place.
    let mut order: Vec<&TestCube> = cubes.iter().collect();
    order.sort_by_key(|c| std::cmp::Reverse(c.care_count()));
    for cube in order {
        match merged.iter_mut().find(|m| m.compatible(cube)) {
            Some(m) => *m = m.merged(cube),
            None => merged.push(cube.clone()),
        }
    }
    merged
}

/// Patterns graded per reverse-drop window: 4 blocks of 64, the point
/// where [`Ppsfp`] switches to 256-lane wide words,
/// so one baseline sweep and one event propagation per fault grade the
/// whole window. The greedy result is window-size-invariant (see
/// [`reverse_order_drop`]).
const DROP_WINDOW: usize = 256;

/// Reverse-order pattern dropping: fault-simulate the set in reverse and
/// keep only patterns that detect a not-yet-detected fault.
///
/// Patterns late in a deterministically grown set tend to target hard
/// faults and incidentally cover the easy ones, so reversing maximizes
/// the drop count.
///
/// Implementation: the set is walked in reverse *windows* of 256
/// patterns, each packed (newest pattern in lane 0) and
/// graded in one [`Ppsfp`] pass over the still-undetected faults. A
/// fault's first-detecting lane is exactly the latest pattern in the
/// window that detects it, and the greedy reverse pass keeps a pattern
/// iff some surviving fault has its latest detection there — so one
/// dropping fault-sim pass per window reproduces the pattern-at-a-time
/// greedy result exactly (for *any* window size), turning the old
/// O(patterns × full-set sims) loop into O(patterns / window)
/// cone-restricted passes with cross-window fault dropping.
///
/// # Errors
///
/// Returns [`LevelizeError`] on combinational cycles.
///
/// # Panics
///
/// Panics if the pattern width disagrees with the netlist.
pub fn reverse_order_drop(
    netlist: &Netlist,
    patterns: &PatternSet,
    faults: &[Fault],
) -> Result<PatternSet, LevelizeError> {
    let n_pi = patterns.input_count();
    if patterns.is_empty() || faults.is_empty() {
        return Ok(PatternSet::new(n_pi));
    }
    let engine = Ppsfp::new(netlist)?;
    let mut live: Vec<Fault> = faults.to_vec();
    let mut kept: Vec<usize> = Vec::new();
    let mut end = patterns.len();
    while end > 0 && !live.is_empty() {
        let start = end.saturating_sub(DROP_WINDOW);
        // Lane l of the window is pattern end-1-l: reverse order, so a
        // fault's first-detecting lane is its latest detecting pattern.
        let window: Vec<Vec<bool>> = (start..end).rev().map(|p| patterns.get(p)).collect();
        let set = PatternSet::from_rows(n_pi, &window);
        let r = engine.run(&set, &live);
        let mut keep_lane = vec![false; end - start];
        let mut still = Vec::with_capacity(live.len());
        for (i, d) in r.first_detected.iter().enumerate() {
            match d {
                Some(lane) => keep_lane[*lane] = true,
                None => still.push(live[i]),
            }
        }
        for (lane, keep) in keep_lane.iter().enumerate() {
            if *keep {
                kept.push(end - 1 - lane);
            }
        }
        live = still;
        end = start;
    }
    kept.sort_unstable();
    let rows: Vec<Vec<bool>> = kept.iter().map(|&p| patterns.get(p)).collect();
    Ok(PatternSet::from_rows(n_pi, &rows))
}

/// Full compaction pipeline for deterministic cubes: merge, fill
/// don't-cares with 0, then reverse-order drop against `faults`.
///
/// # Errors
///
/// Returns [`LevelizeError`] on combinational cycles.
pub fn compact(
    netlist: &Netlist,
    cubes: &[TestCube],
    faults: &[Fault],
) -> Result<PatternSet, LevelizeError> {
    let merged = merge_cubes(cubes);
    let rows: Vec<Vec<bool>> = merged.iter().map(|c| c.filled(false)).collect();
    let set = PatternSet::from_rows(netlist.primary_inputs().len(), &rows);
    reverse_order_drop(netlist, &set, faults)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::podem::{GenOutcome, Podem, PodemConfig};
    use dft_fault::{simulate, universe};
    use dft_netlist::circuits::c17;
    use dft_sim::Logic;

    fn cube(bits: &[Option<bool>]) -> TestCube {
        TestCube {
            assignment: bits
                .iter()
                .map(|b| b.map(Logic::from).unwrap_or(Logic::X))
                .collect(),
        }
    }

    #[test]
    fn merge_combines_compatible_cubes() {
        let cubes = vec![
            cube(&[Some(true), None, None]),
            cube(&[None, Some(false), None]),
            cube(&[Some(false), None, Some(true)]),
        ];
        let merged = merge_cubes(&cubes);
        assert_eq!(merged.len(), 2);
        let total_care: usize = merged.iter().map(TestCube::care_count).sum();
        assert_eq!(total_care, 4);
    }

    #[test]
    fn merge_of_identical_cubes_is_one() {
        let c = cube(&[Some(true), Some(false)]);
        let merged = merge_cubes(&[c.clone(), c.clone(), c]);
        assert_eq!(merged.len(), 1);
    }

    #[test]
    fn compaction_preserves_coverage_and_shrinks() {
        let n = c17();
        let faults = universe(&n);
        let solver = Podem::new(&n, PodemConfig::default()).unwrap();
        let cubes: Vec<TestCube> = faults
            .iter()
            .filter_map(|&f| match solver.solve(f).0 {
                GenOutcome::Test(c) => Some(c),
                _ => None,
            })
            .collect();
        assert_eq!(cubes.len(), faults.len(), "c17 is fully testable");
        let compacted = compact(&n, &cubes, &faults).unwrap();
        assert!(
            compacted.len() < cubes.len(),
            "compaction must shrink {} cubes (got {})",
            cubes.len(),
            compacted.len()
        );
        let r = simulate(&n, &compacted, &faults).unwrap();
        assert_eq!(r.coverage(), 1.0, "compaction must not lose coverage");
    }

    /// The pattern-at-a-time greedy the windowed engine must reproduce
    /// byte for byte.
    fn naive_reverse_order_drop(
        netlist: &dft_netlist::Netlist,
        patterns: &PatternSet,
        faults: &[dft_fault::Fault],
    ) -> PatternSet {
        let mut kept_rows: Vec<Vec<bool>> = Vec::new();
        let mut undetected: Vec<dft_fault::Fault> = faults.to_vec();
        for p in (0..patterns.len()).rev() {
            if undetected.is_empty() {
                break;
            }
            let row = patterns.get(p);
            let single = PatternSet::from_rows(patterns.input_count(), std::slice::from_ref(&row));
            let r = dft_fault::simulate(netlist, &single, &undetected).unwrap();
            let mut caught_any = false;
            let mut still = Vec::with_capacity(undetected.len());
            for (i, f) in undetected.iter().enumerate() {
                if r.first_detected[i].is_some() {
                    caught_any = true;
                } else {
                    still.push(*f);
                }
            }
            if caught_any {
                kept_rows.push(row);
                undetected = still;
            }
        }
        kept_rows.reverse();
        PatternSet::from_rows(patterns.input_count(), &kept_rows)
    }

    #[test]
    fn windowed_drop_is_byte_identical_to_naive_greedy() {
        use dft_netlist::circuits::{random_combinational, redundant_fixture};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut cases: Vec<(dft_netlist::Netlist, PatternSet)> = Vec::new();
        // c17 exhaustive plus a duplicated set (heavy dropping).
        let mut rows: Vec<Vec<bool>> = (0..32u8)
            .map(|v| (0..5).map(|i| v >> i & 1 == 1).collect())
            .collect();
        rows.extend(rows.clone());
        cases.push((c17(), PatternSet::from_rows(5, &rows)));
        // Multi-window random rosters, including a ragged final window.
        for (seed, count) in [(9u64, 150usize), (5, 200)] {
            let n = random_combinational(12, 80, seed);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xC0DE);
            let p = PatternSet::random(12, count, &mut rng);
            cases.push((n, p));
        }
        let fixture = redundant_fixture();
        let width = fixture.primary_inputs().len();
        let mut rng = StdRng::seed_from_u64(3);
        let p = PatternSet::random(width, 70, &mut rng);
        cases.push((fixture, p));
        for (n, p) in cases {
            let faults = universe(&n);
            let fast = reverse_order_drop(&n, &p, &faults).unwrap();
            let naive = naive_reverse_order_drop(&n, &p, &faults);
            assert_eq!(fast, naive, "kept sets differ on {}", n.name());
        }
    }

    #[test]
    fn reverse_drop_removes_redundant_patterns() {
        let n = c17();
        let faults = universe(&n);
        // Duplicate an exhaustive set: at least half must drop.
        let mut rows: Vec<Vec<bool>> = (0..32u8)
            .map(|v| (0..5).map(|i| v >> i & 1 == 1).collect())
            .collect();
        rows.extend(rows.clone());
        let set = PatternSet::from_rows(5, &rows);
        let dropped = reverse_order_drop(&n, &set, &faults).unwrap();
        assert!(
            dropped.len() <= 10,
            "64 patterns → few: got {}",
            dropped.len()
        );
        let r = simulate(&n, &dropped, &faults).unwrap();
        assert_eq!(r.coverage(), 1.0);
    }
}
