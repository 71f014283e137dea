//! Integration and property tests for `dft-lint`: the library circuits
//! lint clean, each violation class is detectable from a seeded netlist,
//! and the renderers and the scan groundrule checker hold their
//! contracts.

use design_for_testability::core::{DftPlanner, Technique};
use design_for_testability::lint::{
    lint, lint_with, rule_code, Category, LintConfig, LintReport, Registry, Severity,
};
use design_for_testability::netlist::circuits::{
    barrel_shifter, binary_counter, c17, carry_lookahead_adder, comparator, decoder, full_adder,
    johnson_counter, majority, mux_tree, parity_tree, random_combinational, random_sequential,
    ripple_carry_adder, shift_register, sn74181, wallace_multiplier,
};
use design_for_testability::netlist::{GateId, GateKind, Netlist};
use design_for_testability::scan::{
    insert_scan, lint_scan_design, RuleConfig, ScanConfig, ScanStyle,
};
use proptest::prelude::*;

/// Every combinational library circuit passes the default rule set with
/// nothing above Info (reconvergence notes are expected and fine).
#[test]
fn combinational_library_lints_clean() {
    let library: Vec<Netlist> = vec![
        c17(),
        full_adder(),
        majority(),
        parity_tree(8),
        ripple_carry_adder(8),
        carry_lookahead_adder(8),
        comparator(8),
        mux_tree(3),
        decoder(4),
        wallace_multiplier(4),
        barrel_shifter(3),
        sn74181().0,
    ];
    for n in &library {
        let report = lint(n);
        assert!(
            report.is_clean(),
            "{} should lint clean, got:\n{}",
            n.name(),
            report.to_text()
        );
    }
}

/// Sequential circuits may carry warnings (uninitializable state, latch
/// races) but never error-severity findings.
#[test]
fn sequential_library_has_no_errors() {
    for n in [
        shift_register(8),
        binary_counter(8),
        johnson_counter(8),
        random_sequential(6, 4, 30, 3, 11),
    ] {
        let report = lint(&n);
        assert!(
            !report.has_errors(),
            "{} has errors:\n{}",
            n.name(),
            report.to_text()
        );
    }
}

/// One seeded netlist per violation class; the registry finds each.
#[test]
fn seeded_violations_are_all_detected() {
    // A netlist collecting several sins at once.
    let mut n = Netlist::new("sinner");
    let a = n.add_input("a");
    let b = n.add_input("b");
    let _unused = n.add_input("nc");
    let zero = n.add_const(false);
    let tied = n.add_gate(GateKind::And, &[a, zero]).unwrap(); // constant 0
    let dead = n.add_gate(GateKind::Or, &[a, b]).unwrap(); // unobservable
    let live = n.add_gate(GateKind::Nand, &[a, b]).unwrap();
    n.mark_output(live, "y").unwrap();
    n.mark_output(tied, "z").unwrap();
    let report = lint(&n);
    for rule in ["unused-input", "dead-logic", "constant-output"] {
        assert!(
            report.by_rule(rule).next().is_some(),
            "{rule} missing from:\n{}",
            report.to_text()
        );
    }
    assert_eq!(report.by_rule("dead-logic").next().unwrap().gate, dead);

    // Cycle → comb-feedback at error severity.
    let mut c = Netlist::new("cyclic");
    let x = c.add_input("x");
    let g1 = c.add_gate(GateKind::And, &[x, x]).unwrap();
    let g2 = c.add_gate(GateKind::Or, &[g1, x]).unwrap();
    c.reconnect_input(g1, 1, g2).unwrap();
    c.mark_output(g2, "y").unwrap();
    let report = lint(&c);
    assert!(report.has_errors());
    assert!(report.by_rule("comb-feedback").next().is_some());

    // Latch-to-latch and uninitializable state.
    let report = lint(&shift_register(4));
    assert_eq!(report.by_rule("latch-race").count(), 3);
    let report = lint(&binary_counter(4));
    assert_eq!(report.by_rule("uninitializable-storage").count(), 4);

    // Threshold rules under tightened limits.
    let tight = LintConfig {
        max_depth: 5,
        controllability_limit: 5,
        observability_limit: 5,
        max_fanout: 1,
        ..LintConfig::default()
    };
    let report = lint_with(&ripple_carry_adder(16), tight);
    for rule in [
        "deep-logic",
        "hard-to-control",
        "hard-to-observe",
        "excessive-fanout",
    ] {
        assert!(
            report.by_rule(rule).next().is_some(),
            "{rule} not triggered"
        );
    }

    // Reconvergence notes on c17 (fanout stems g1/g3 reconverge).
    assert!(lint(&c17()).by_rule("reconvergent-fanout").next().is_some());
}

/// Scan groundrule findings carry the identity of their rule-table
/// entry: a `scan-*` id, that id's `DFT-1NN` code and the scan category.
#[test]
fn scan_findings_carry_their_table_identity() {
    let n = binary_counter(8);
    let d = insert_scan(&n, &ScanConfig::new(ScanStyle::ScanSet { width: 3 })).unwrap();
    let report = lint_scan_design(&d, &RuleConfig { max_depth: 5 });
    assert_eq!(report.by_rule("scan-coverage").count(), 5);
    for diag in report.diagnostics() {
        assert!(diag.rule().starts_with("scan-"), "{}", diag.rule());
        assert_eq!(diag.code(), rule_code(diag.rule()));
        assert!(diag.code().starts_with("DFT-1"), "{}", diag.code());
        assert_eq!(diag.category(), Category::Scan);
    }
    assert!(report.has_errors(), "unscanned latches are errors");
}

/// The planner consumes the lint report as a testability-risk input.
#[test]
fn planner_surfaces_lint_findings() {
    let a = DftPlanner::assess(&binary_counter(8)).unwrap();
    assert_eq!(a.lint.by_rule("uninitializable-storage").count(), 8);
    let clear_preset = a
        .recommendations
        .iter()
        .find(|r| r.technique == Technique::ClearPreset)
        .expect("unresettable counter earns a CLEAR/PRESET recommendation");
    assert!(clear_preset.rationale.contains("uninitializable"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random combinational netlists never produce error-severity
    /// findings (the generator builds acyclic designs) and their JSON
    /// renders stay balanced.
    #[test]
    fn random_combinational_never_errors(
        inputs in 2usize..10,
        gates in 5usize..80,
        seed: u64,
    ) {
        let n = random_combinational(inputs, gates, seed);
        let report = lint(&n);
        prop_assert!(!report.has_errors(), "{}", report.to_text());
        let j = report.to_json();
        prop_assert!(j.contains(&format!("\"design\": \"{}\"", n.name())));
        prop_assert_eq!(j.matches('{').count(), j.matches('}').count());
        prop_assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    /// Report invariants hold on arbitrary designs: sorted severity,
    /// summary counts match, every diagnostic's rule is registered.
    #[test]
    fn report_invariants(
        state_bits in 0usize..5,
        gates in 4usize..40,
        seed: u64,
    ) {
        let n = if state_bits == 0 {
            random_combinational(4, gates, seed)
        } else {
            random_sequential(4, state_bits, gates, 2, seed)
        };
        let report = lint(&n);
        let sevs: Vec<Severity> =
            report.diagnostics().iter().map(|d| d.severity).collect();
        let mut sorted = sevs.clone();
        sorted.sort_by(|a, b| b.cmp(a));
        prop_assert_eq!(&sevs, &sorted, "diagnostics are most-severe first");
        let total = report.count(Severity::Error)
            + report.count(Severity::Warning)
            + report.count(Severity::Info);
        prop_assert_eq!(total, report.diagnostics().len());
        let registry = Registry::with_default_rules();
        let known: Vec<&str> = registry.rules().map(|r| r.id()).collect();
        for d in report.diagnostics() {
            prop_assert!(known.contains(&d.rule()), "unknown rule id {}", d.rule());
        }
    }

    /// Under any depth bound, `scan-depth` flags exactly the logic gates
    /// deeper than the bound, and the bound moves no other scan finding.
    #[test]
    fn scan_depth_findings_follow_the_bound(
        state_bits in 1usize..6,
        gates in 8usize..60,
        depth in 1u32..20,
        seed: u64,
    ) {
        let n = random_sequential(4, state_bits, gates, 2, seed);
        let d = insert_scan(&n, &ScanConfig::new(ScanStyle::ScanPath)).unwrap();
        let report = lint_scan_design(&d, &RuleConfig { max_depth: depth });
        let lv = d.netlist().levelize().unwrap();
        let deep: Vec<GateId> = d
            .netlist()
            .iter()
            .filter(|&(id, g)| !g.kind().is_source() && lv.level(id) > depth)
            .map(|(id, _)| id)
            .collect();
        let flagged: Vec<GateId> = report.by_rule("scan-depth").map(|x| x.gate).collect();
        prop_assert_eq!(flagged, deep);
        let unbounded = lint_scan_design(&d, &RuleConfig { max_depth: u32::MAX });
        let others = |r: &LintReport| {
            r.diagnostics()
                .iter()
                .filter(|x| x.rule() != "scan-depth")
                .cloned()
                .collect::<Vec<_>>()
        };
        prop_assert_eq!(others(&report), others(&unbounded));
    }
}
