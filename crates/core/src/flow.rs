//! End-to-end DFT flows.
//!
//! The survey's whole argument in one function: take a sequential design
//! whose faults defeat sequential test generation, insert scan, extract
//! the combinational test view, run a combinational ATPG, schedule the
//! patterns as shift/capture programs, and report coverage, cycles, data
//! volume and hardware overhead.

use dft_atpg::{generate_tests, AtpgConfig};
use dft_fault::{sequential, universe, Fault};
use dft_lint::Diagnostic;
use dft_netlist::{LevelizeError, Netlist};
use dft_scan::{
    extract_test_view, insert_scan, lint_scan_design, OverheadReport, RuleConfig, ScanConfig,
    ScanSchedule, ScanTestProgram,
};
use dft_sim::Logic;

/// The result of a full-scan flow.
#[derive(Clone, Debug)]
pub struct ScanFlowReport {
    /// ATPG coverage on the combinational test view (untestable faults
    /// counted as covered).
    pub view_coverage: f64,
    /// ATPG detected-only coverage.
    pub view_detected_coverage: f64,
    /// Patterns in the final test set.
    pub pattern_count: usize,
    /// Tester cycles for the scan program (shift + capture).
    pub test_cycles: u64,
    /// Test data volume in bits.
    pub data_volume_bits: u64,
    /// Hardware cost of the scan style.
    pub overhead: OverheadReport,
    /// Scan groundrule findings on the scanned design, found before the
    /// flow ran.
    pub rule_violations: Vec<Diagnostic>,
    /// Mismatches when the assembled program ran on the good functional
    /// machine (must be 0: the view's predictions hold end-to-end).
    pub good_machine_mismatches: usize,
}

/// Runs the full-scan flow on `netlist` with the given scan and ATPG
/// configurations. Faults are the full collapsed-to-nothing universe of
/// the original design, translated into the view.
///
/// # Errors
///
/// Returns [`LevelizeError`] on combinational cycles.
pub fn full_scan_flow(
    netlist: &Netlist,
    scan_config: &ScanConfig,
    atpg_config: &AtpgConfig,
) -> Result<ScanFlowReport, LevelizeError> {
    let design = insert_scan(netlist, scan_config)?;
    let rule_violations = lint_scan_design(&design, &RuleConfig { max_depth: 64 })
        .diagnostics()
        .to_vec();
    let view = extract_test_view(netlist)?;

    let faults: Vec<Fault> = universe(netlist)
        .into_iter()
        .map(|f| view.fault_to_view(f))
        .collect();
    let run = generate_tests(view.netlist(), &faults, atpg_config)?;

    let program = ScanTestProgram::assemble(&design, &view, &run.patterns)?;
    let schedule = ScanSchedule::new(&design, run.patterns.len());
    let good_machine_mismatches = program.run_good_machine(&design)?;

    Ok(ScanFlowReport {
        view_coverage: run.coverage(),
        view_detected_coverage: run.detected_coverage(),
        pattern_count: run.patterns.len(),
        test_cycles: schedule.total_cycles(),
        data_volume_bits: schedule.data_volume_bits(),
        overhead: *design.overhead(),
        rule_violations,
        good_machine_mismatches,
    })
}

/// The before/after comparison (experiment E9): sequential testing of
/// the raw machine versus scan-based testing.
#[derive(Clone, Debug)]
pub struct ScanPayoff {
    /// Coverage a random input *sequence* of `seq_cycles` cycles achieves
    /// on the un-scanned machine.
    pub sequential_coverage: f64,
    /// Clock cycles that sequence consumed.
    pub sequential_cycles: u64,
    /// The scan flow's report.
    pub scan: ScanFlowReport,
}

/// Measures the payoff of scan on `netlist`: random sequential testing
/// with `seq_cycles` cycles versus the full-scan flow.
///
/// # Errors
///
/// Returns [`LevelizeError`] on combinational cycles.
pub fn compare_scan_payoff(
    netlist: &Netlist,
    seq_cycles: usize,
    seed: u64,
    scan_config: &ScanConfig,
    atpg_config: &AtpgConfig,
) -> Result<ScanPayoff, LevelizeError> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let n_pi = netlist.primary_inputs().len();
    let sequence: Vec<Vec<Logic>> = (0..seq_cycles)
        .map(|_| (0..n_pi).map(|_| Logic::from(rng.gen_bool(0.5))).collect())
        .collect();
    let faults = universe(netlist);
    let seq = sequential(netlist, &sequence, &faults)?;
    let scan = full_scan_flow(netlist, scan_config, atpg_config)?;
    Ok(ScanPayoff {
        sequential_coverage: seq.coverage(),
        sequential_cycles: seq_cycles as u64,
        scan,
    })
}

/// The result of the ad-hoc flow.
#[derive(Clone, Debug)]
pub struct AdhocFlowReport {
    /// Coverage of the *original* design's faults under random sequences
    /// before any DFT.
    pub before_coverage: f64,
    /// Coverage after CLEAR insertion and observation points, with the
    /// tester resetting first and then applying random sequences.
    pub after_coverage: f64,
    /// Pins the ad-hoc hardware cost.
    pub extra_pins: usize,
    /// Gates the ad-hoc hardware cost.
    pub extra_gates: usize,
}

/// The §III alternative to scan: CLEAR for predictability plus
/// measure-driven observation points, evaluated by random sequential
/// testing of length `seq_cycles`. Cheaper than scan — and the report
/// shows how much coverage that cheapness buys (or doesn't; the paper's
/// ad-hoc techniques "usually do offer relief" without solving the
/// general problem).
///
/// # Errors
///
/// Returns [`LevelizeError`] on combinational cycles.
pub fn adhoc_flow(
    netlist: &Netlist,
    observe_points: usize,
    seq_cycles: usize,
    seed: u64,
) -> Result<AdhocFlowReport, LevelizeError> {
    use dft_adhoc::{add_reset, apply_test_points, select_test_points, ResetKind};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let mut rng = StdRng::seed_from_u64(seed);
    let n_pi = netlist.primary_inputs().len();
    let random_rows = |rng: &mut StdRng, width: usize, cycles: usize| -> Vec<Vec<Logic>> {
        (0..cycles)
            .map(|_| (0..width).map(|_| Logic::from(rng.gen_bool(0.5))).collect())
            .collect()
    };

    // Baseline: raw machine, random sequences, no initialization.
    let faults = universe(netlist);
    let before = sequential(netlist, &random_rows(&mut rng, n_pi, seq_cycles), &faults)?;

    // Ad-hoc hardware: CLEAR + observation points.
    let (with_rst, _) = add_reset(netlist, ResetKind::Clear)?;
    let plan = select_test_points(&with_rst, observe_points, 0)?;
    let improved = apply_test_points(&with_rst, &plan)?;
    let faults_after = universe(&improved);

    // Tester procedure: one reset clock, then random functional cycles
    // (rst is the last primary input of the improved netlist's original
    // block; observation points add no inputs).
    let width = improved.primary_inputs().len();
    let rst_pos = width - 1; // `rst` was appended by add_reset
    let mut seq: Vec<Vec<Logic>> = Vec::with_capacity(seq_cycles + 1);
    let mut reset_row = vec![Logic::Zero; width];
    reset_row[rst_pos] = Logic::One;
    seq.push(reset_row);
    for _ in 0..seq_cycles {
        let mut row: Vec<Logic> = (0..width).map(|_| Logic::from(rng.gen_bool(0.5))).collect();
        row[rst_pos] = Logic::Zero;
        seq.push(row);
    }
    let after = sequential(&improved, &seq, &faults_after)?;

    Ok(AdhocFlowReport {
        before_coverage: before.coverage(),
        after_coverage: after.coverage(),
        extra_pins: 1 + plan.pin_cost(),
        extra_gates: improved.logic_gate_count() - netlist.logic_gate_count(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dft_netlist::circuits::{binary_counter, random_sequential};
    use dft_scan::ScanStyle;

    #[test]
    fn counter_flow_reaches_full_view_coverage() {
        let n = binary_counter(6);
        let report = full_scan_flow(
            &n,
            &ScanConfig::new(ScanStyle::Lssd),
            &AtpgConfig::default(),
        )
        .unwrap();
        assert!(report.view_coverage > 0.99, "{}", report.view_coverage);
        assert_eq!(report.good_machine_mismatches, 0);
        assert!(report.rule_violations.is_empty());
        assert!(report.test_cycles > 0);
        assert!(report.overhead.extra_gates > 0);
    }

    #[test]
    fn scan_beats_sequential_testing_on_counters() {
        // The headline result: an unresettable counter is nearly
        // untestable sequentially; with scan it is fully testable.
        let n = binary_counter(8);
        let payoff = compare_scan_payoff(
            &n,
            200,
            7,
            &ScanConfig::new(ScanStyle::Lssd),
            &AtpgConfig::default(),
        )
        .unwrap();
        assert!(
            payoff.sequential_coverage < 0.3,
            "sequential coverage {} unexpectedly high",
            payoff.sequential_coverage
        );
        assert!(payoff.scan.view_coverage > 0.99);
    }

    #[test]
    fn adhoc_flow_rescues_the_counter_partway() {
        // CLEAR turns the untestable counter into a mostly-testable one
        // at one pin — the ad-hoc "relief" story, in between raw and
        // scan.
        let n = binary_counter(4);
        let r = adhoc_flow(&n, 2, 64, 3).unwrap();
        assert!(r.before_coverage < 0.1, "raw counter ~untestable");
        assert!(
            r.after_coverage > 0.5,
            "CLEAR + observation must lift coverage (got {:.2})",
            r.after_coverage
        );
        assert!(r.extra_pins <= 4);
        assert!(r.extra_gates > 0);
    }

    #[test]
    fn fsm_flow_end_to_end() {
        let n = random_sequential(5, 8, 18, 4, 13);
        let report = full_scan_flow(
            &n,
            &ScanConfig::new(ScanStyle::ScanPath),
            &AtpgConfig::default(),
        )
        .unwrap();
        assert!(report.view_coverage > 0.95, "{}", report.view_coverage);
        assert_eq!(report.good_machine_mismatches, 0);
        assert!(report.data_volume_bits > 0);
    }
}
