//! Dynamic verification and the economics gate.
//!
//! Static ranking orders candidates; *measured coverage* decides. Each
//! surviving candidate is fault-graded with the PPSFP engine under a
//! deterministic random pattern budget, and the before/after coverage
//! feeds the paper's rule-of-ten escalation model: a repair is accepted
//! only if the expected-escape-cost saving pays for its hardware.

use dft_core::CostModel;
use dft_fault::{universe, Ppsfp, PpsfpOptions};
use dft_netlist::{LevelizeError, Netlist};
use dft_sim::PatternSet;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Coverage measured on one netlist under the shared pattern budget.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CoverageStat {
    /// Faults in the universe.
    pub fault_count: usize,
    /// Faults the budget detected.
    pub detected: usize,
    /// `detected / fault_count` (1.0 on an empty universe).
    pub coverage: f64,
}

/// Fault-grades `netlist` with `patterns` random vectors derived from
/// `seed`. The RNG is re-seeded per call and PPSFP results are
/// independent of thread count, so equal seeds give equal stats no
/// matter where in the autopilot the call happens.
///
/// # Errors
///
/// Returns [`LevelizeError`] on combinational cycles.
pub fn measure_coverage(
    netlist: &Netlist,
    patterns: usize,
    seed: u64,
    threads: usize,
) -> Result<CoverageStat, LevelizeError> {
    let faults = universe(netlist);
    let mut rng = StdRng::seed_from_u64(seed);
    let set = PatternSet::random(netlist.primary_inputs().len(), patterns, &mut rng);
    let result =
        Ppsfp::with_options(netlist, PpsfpOptions::new().with_threads(threads))?.run(&set, &faults);
    Ok(CoverageStat {
        fault_count: faults.len(),
        detected: result.detected_count(),
        coverage: result.coverage(),
    })
}

/// The accept/reject economics for one repair (§I-B, §I-C).
///
/// `#[non_exhaustive]`: construct via [`Default`] and the `with_*`
/// builders.
#[derive(Clone, Copy, Debug, PartialEq)]
#[non_exhaustive]
pub struct RepairEconomics {
    /// The escalation model (defaults to the paper's $0.30 × 10 rule).
    pub cost_model: CostModel,
    /// Dollar cost per added logic gate.
    pub gate_cost: f64,
    /// Dollar cost per added package pin (pins are the scarce resource).
    pub pin_cost: f64,
    /// Detection probability at the board and system levels for faults
    /// that escape chip test (field coverage is always 1 — the customer
    /// finds everything).
    pub downstream_coverage: [f64; 2],
}

impl Default for RepairEconomics {
    fn default() -> Self {
        RepairEconomics {
            cost_model: CostModel::default(),
            gate_cost: 0.05,
            pin_cost: 1.0,
            downstream_coverage: [0.5, 0.5],
        }
    }
}

impl RepairEconomics {
    /// Defaults, spelled for builder chains.
    #[must_use]
    pub fn new() -> Self {
        RepairEconomics::default()
    }

    /// Sets the per-gate hardware cost.
    #[must_use]
    pub fn with_gate_cost(mut self, cost: f64) -> Self {
        self.gate_cost = cost;
        self
    }

    /// Sets the per-pin hardware cost.
    #[must_use]
    pub fn with_pin_cost(mut self, cost: f64) -> Self {
        self.pin_cost = cost;
        self
    }

    /// Expected escape cost of shipping one unit with the measured
    /// chip-level coverage.
    #[must_use]
    pub fn escape_cost(&self, stat: CoverageStat) -> f64 {
        let [board, system] = self.downstream_coverage;
        self.cost_model.expected_cost(
            stat.fault_count as f64,
            &[stat.coverage, board, system, 1.0],
        )
    }

    /// One-time hardware cost of a repair.
    #[must_use]
    pub fn hardware_cost(&self, extra_gates: i64, extra_pins: i64) -> f64 {
        // Removal is free, not a credit: deleted redundancy has already
        // been paid for in silicon.
        self.gate_cost * extra_gates.max(0) as f64 + self.pin_cost * extra_pins.max(0) as f64
    }
}

/// The verdict on one verified candidate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Verdict {
    /// Coverage before the repair.
    pub before: CoverageStat,
    /// Coverage after the repair.
    pub after: CoverageStat,
    /// Escape-cost saving per unit (positive = repair helps).
    pub saving: f64,
    /// One-time hardware cost of the repair.
    pub hardware: f64,
    /// Whether the economics accept the repair: coverage strictly
    /// improves and the saving pays for the hardware.
    pub accepted: bool,
}

/// Judges a repair: measured coverage must strictly improve and the
/// escape-cost saving must exceed the hardware cost.
#[must_use]
pub fn judge(
    economics: &RepairEconomics,
    before: CoverageStat,
    after: CoverageStat,
    extra_gates: i64,
    extra_pins: i64,
) -> Verdict {
    let saving = economics.escape_cost(before) - economics.escape_cost(after);
    let hardware = economics.hardware_cost(extra_gates, extra_pins);
    Verdict {
        before,
        after,
        saving,
        hardware,
        accepted: after.coverage > before.coverage && saving > hardware,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dft_netlist::circuits::{c17, redundant_fixture};

    #[test]
    fn coverage_measurement_is_seed_deterministic() {
        let n = c17();
        let a = measure_coverage(&n, 64, 7, 1).unwrap();
        let b = measure_coverage(&n, 64, 7, 2).unwrap();
        assert_eq!(a, b, "same seed, any thread count");
        let c = measure_coverage(&n, 64, 8, 1).unwrap();
        assert_eq!(a.fault_count, c.fault_count);
    }

    #[test]
    fn fixture_baseline_is_capped_by_redundancy() {
        let n = redundant_fixture();
        let s = measure_coverage(&n, 256, 1, 1).unwrap();
        assert!(s.coverage < 1.0, "untestable faults cap coverage");
        assert!(s.detected > 0);
    }

    #[test]
    fn judge_accepts_paying_repairs_and_rejects_losses() {
        let eco = RepairEconomics::new();
        let before = CoverageStat {
            fault_count: 100,
            detected: 60,
            coverage: 0.6,
        };
        let better = CoverageStat {
            fault_count: 100,
            detected: 95,
            coverage: 0.95,
        };
        let v = judge(&eco, before, better, 3, 1);
        assert!(v.saving > 0.0);
        assert!(v.accepted, "large coverage gain pays for a pin");

        // No improvement: rejected regardless of cost.
        let v = judge(&eco, before, before, 0, 0);
        assert!(!v.accepted);

        // Improvement too small to pay for many pins.
        let tiny = CoverageStat {
            fault_count: 100,
            detected: 61,
            coverage: 0.61,
        };
        let expensive = RepairEconomics::new().with_pin_cost(1e6);
        let v = judge(&expensive, before, tiny, 0, 4);
        assert!(
            !v.accepted,
            "saving {} vs hardware {}",
            v.saving, v.hardware
        );
    }

    #[test]
    fn escape_cost_falls_with_coverage() {
        let eco = RepairEconomics::new();
        let low = CoverageStat {
            fault_count: 50,
            detected: 25,
            coverage: 0.5,
        };
        let high = CoverageStat {
            fault_count: 50,
            detected: 49,
            coverage: 0.98,
        };
        assert!(eco.escape_cost(high) < eco.escape_cost(low));
    }
}
