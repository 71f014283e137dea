//! Cross-crate integration tests: the full flows a user of the toolkit
//! would run, exercised end to end.

use design_for_testability::atpg::{generate_tests, AtpgConfig};
use design_for_testability::core::planner::{DftPlanner, Technique};
use design_for_testability::core::{compare_scan_payoff, full_scan_flow};
use design_for_testability::fault::stream::CollapsedUniverse;
use design_for_testability::fault::{simulate, universe};
use design_for_testability::netlist::circuits::{binary_counter, random_sequential, sn74181};
use design_for_testability::scan::{extract_test_view, ScanConfig, ScanStyle};
use design_for_testability::sim::PatternSet;

/// The survey's central claim, end to end: a machine with unreachable
/// state is (nearly) untestable sequentially, fully testable with scan,
/// and the scan patterns actually work on the functional machine.
#[test]
fn scan_rescues_an_untestable_machine() {
    let design = binary_counter(6);
    let payoff = compare_scan_payoff(
        &design,
        128,
        3,
        &ScanConfig::new(ScanStyle::Lssd),
        &AtpgConfig::default(),
    )
    .expect("flow runs");
    assert!(payoff.sequential_coverage < 0.2);
    assert!(payoff.scan.view_coverage > 0.99);
    assert_eq!(payoff.scan.good_machine_mismatches, 0);
    assert!(payoff.scan.rule_violations.is_empty());
}

/// ATPG on the scan view, translated back: every view-detected fault is
/// detected by the same patterns in the view (sanity chain across
/// netlist → scan → atpg → fault).
#[test]
fn view_faults_round_trip_through_atpg() {
    let design = random_sequential(4, 6, 12, 3, 9);
    let view = extract_test_view(&design).expect("levelizes");
    let orig_faults = universe(&design);
    let view_faults: Vec<_> = orig_faults.iter().map(|&f| view.fault_to_view(f)).collect();
    let run = generate_tests(view.netlist(), &view_faults, &AtpgConfig::default())
        .expect("combinational");
    let sim = simulate(view.netlist(), &run.patterns, &view_faults).expect("combinational");
    assert!((sim.coverage() - run.detected_coverage()).abs() < 1e-9);
    // And the mapping is invertible for every fault.
    for (&orig, &viewed) in orig_faults.iter().zip(&view_faults) {
        assert_eq!(view.fault_to_original(viewed), Some(orig));
    }
}

/// Collapse + detection consistency: simulating only the class
/// representatives and giving each fault its representative's verdict
/// must match simulating the full universe.
#[test]
fn collapse_preserves_detection() {
    let (alu, _) = sn74181();
    let faults = universe(&alu);
    let col = CollapsedUniverse::new(&alu);
    let reps: Vec<_> = col.representatives().collect();

    let mut rows = Vec::new();
    let mut state = 1u64;
    for _ in 0..64 {
        // xorshift for a deterministic pattern set
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        rows.push((0..14).map(|i| state >> i & 1 == 1).collect::<Vec<bool>>());
    }
    let patterns = PatternSet::from_rows(14, &rows);

    let full = simulate(&alu, &patterns, &faults).expect("combinational");
    let rep_result = simulate(&alu, &patterns, &reps).expect("combinational");
    for (i, full_d) in full.first_detected.iter().enumerate() {
        let rep = col.representative(i);
        let class = reps
            .iter()
            .position(|&r| r == rep)
            .expect("a representative");
        assert_eq!(
            rep_result.first_detected[class].is_some(),
            full_d.is_some(),
            "fault {} ({}): representative disagrees",
            i,
            faults[i]
        );
    }
}

/// The planner's advice is actionable: whatever scan style it puts
/// first on a sequential design, the corresponding flow reaches high
/// coverage.
#[test]
fn planner_advice_is_actionable() {
    let design = random_sequential(5, 10, 15, 4, 17);
    let assessment = DftPlanner::assess(&design).expect("levelizes");
    let style = match assessment.first_choice().expect("has advice").technique {
        Technique::Lssd => ScanStyle::Lssd,
        Technique::ScanPath => ScanStyle::ScanPath,
        Technique::RandomAccessScan => ScanStyle::RandomAccessScan,
        Technique::ScanSet => ScanStyle::ScanSet { width: 64 },
        other => panic!("sequential design got non-scan advice {other:?}"),
    };
    let report = full_scan_flow(&design, &ScanConfig::new(style), &AtpgConfig::default())
        .expect("flow runs");
    assert!(report.view_coverage > 0.95, "{}", report.view_coverage);
}

/// The 74181 story across three crates: structural model (netlist),
/// exhaustive fault simulation (fault), sensitized partitioning (bist).
#[test]
fn alu_sensitized_partitioning_holds() {
    let report = design_for_testability::bist::sensitized_partition_74181().expect("alu levelizes");
    assert!(report.patterns_applied * 2 == report.exhaustive_patterns);
    assert!(report.n1_coverage >= 0.999);
    assert!(report.total_coverage > 0.9);
}
