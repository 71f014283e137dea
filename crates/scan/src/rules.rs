//! Scan design-rule checking.
//!
//! LSSD is "a discipline": the paper points to the Williams/Eichelberger
//! rules on clocking, race freedom and structure, and to automatic
//! checkers ("automatic checking of logic design structure for
//! compliance with testability groundrules", \[22\]). This checker
//! enforces the structural rules expressible in this toolkit's model.

use dft_lint::rules::{SCAN_COMB_FEEDBACK, SCAN_COVERAGE, SCAN_DEPTH, SCAN_LATCH_RACE};
use dft_lint::{FixHint, LintReport};
use dft_netlist::GateId;

use crate::ScanDesign;

/// Thresholds for the scan rule checker.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RuleConfig {
    /// Bound on combinational depth between storage stages
    /// ([`SCAN_DEPTH`]). Default 50 — generous enough that depth only
    /// flags designs where the level-sensitive settle discipline is in
    /// real doubt; tighten it when modelling a specific clock budget.
    pub max_depth: u32,
}

impl Default for RuleConfig {
    fn default() -> Self {
        RuleConfig { max_depth: 50 }
    }
}

/// Checks `design` against the scan groundrules, reporting through the
/// `dft-lint` diagnostic framework: each finding carries its `scan-*`
/// entry of the `dft-lint` rule table ([`dft_lint::rules`]).
///
/// Diagnostics appear in checking order: feedback, coverage, depth,
/// race. The latch-to-latch race rule is waived for LSSD (its L1/L2
/// pair is the two-phase cell that makes direct connection safe) and
/// enforced for Scan Path's single-clock raceless flip-flop, which the
/// paper notes is "the exposure to the use of only one system clock".
#[must_use]
pub fn lint_scan_design(design: &ScanDesign, config: &RuleConfig) -> LintReport {
    let netlist = design.netlist();
    let mut report = LintReport::new(netlist.name());

    // Rule 1: combinational cycles.
    let lv = match netlist.levelize() {
        Ok(lv) => lv,
        Err(e) => {
            report.push(
                SCAN_COMB_FEEDBACK
                    .diagnostic(e.on_cycle, "combinational cycle")
                    .with_hint(
                        "level-sensitive operation is impossible around an asynchronous loop",
                    ),
            );
            return report; // depth checks are meaningless with cycles
        }
    };

    // Rule 2: full scan.
    let scanned: std::collections::HashSet<GateId> = design.chain().iter().copied().collect();
    let accessible = design.accessible_latches();
    for (k, dff) in netlist.storage_elements().into_iter().enumerate() {
        if !scanned.contains(&dff) || k >= accessible {
            report.push(
                SCAN_COVERAGE
                    .diagnostic(
                        dff,
                        "storage element not accessible through the scan structure",
                    )
                    .with_hint(
                        "partial access defeats the combinational reduction; extend the chain",
                    )
                    .with_fix(FixHint::ScanConvert { storage: dff }),
            );
        }
    }

    // Rule 3: bounded depth.
    for (id, gate) in netlist.iter() {
        if !gate.kind().is_source() && lv.level(id) > config.max_depth {
            report.push(
                SCAN_DEPTH
                    .diagnostic(
                        id,
                        format!("level {} exceeds bound {}", lv.level(id), config.max_depth),
                    )
                    .with_hint("data must settle within the clock phase; pipeline the cone"),
            );
        }
    }

    // Rule 4: direct latch-to-latch (waived for LSSD).
    let waived = matches!(design.config().style, crate::ScanStyle::Lssd);
    if !waived {
        for &dff in design.chain() {
            let d = netlist.gate(dff).inputs()[0];
            if netlist.gate(d).kind().is_storage() {
                report.push(
                    SCAN_LATCH_RACE
                        .diagnostic(dff, format!("data input driven directly by latch {d}"))
                        .with_related(vec![d])
                        .with_hint("use a two-phase (master/slave) cell or insert logic between")
                        .with_fix(FixHint::ScanConvert { storage: dff }),
                );
            }
        }
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{insert_scan, ScanConfig, ScanStyle};
    use dft_lint::{rule_code, Category, Severity};
    use dft_netlist::circuits::{binary_counter, shift_register};

    #[test]
    fn clean_counter_passes_under_lssd() {
        let n = binary_counter(4);
        let d = insert_scan(&n, &ScanConfig::new(ScanStyle::Lssd)).unwrap();
        let r = lint_scan_design(&d, &RuleConfig::default());
        assert!(r.diagnostics().is_empty());
        assert!(r.is_clean());
    }

    #[test]
    fn shift_register_trips_race_rule_under_scan_path() {
        // Direct FF→FF connections: fine for LSSD's two-phase SRLs,
        // flagged for the single-clock raceless cell.
        let n = shift_register(4);
        let lssd = insert_scan(&n, &ScanConfig::new(ScanStyle::Lssd)).unwrap();
        assert!(lint_scan_design(&lssd, &RuleConfig::default())
            .diagnostics()
            .is_empty());
        let sp = insert_scan(&n, &ScanConfig::new(ScanStyle::ScanPath)).unwrap();
        let r = lint_scan_design(&sp, &RuleConfig::default());
        assert_eq!(
            r.diagnostics().len(),
            3,
            "three of four stages chain directly"
        );
        assert_eq!(r.by_rule("scan-latch-race").count(), 3);
    }

    #[test]
    fn partial_scan_set_flags_unscanned_latches() {
        let n = binary_counter(8);
        let d = insert_scan(&n, &ScanConfig::new(ScanStyle::ScanSet { width: 3 })).unwrap();
        let r = lint_scan_design(&d, &RuleConfig::default());
        assert_eq!(r.by_rule("scan-coverage").count(), 5);
    }

    #[test]
    fn depth_bound_is_enforced() {
        let n = dft_netlist::circuits::ripple_carry_adder(16);
        let d = insert_scan(&n, &ScanConfig::new(ScanStyle::Lssd)).unwrap();
        let deep = lint_scan_design(&d, &RuleConfig { max_depth: 5 });
        assert!(!deep.diagnostics().is_empty());
        assert_eq!(deep.by_rule("scan-depth").count(), deep.diagnostics().len());
        assert!(lint_scan_design(&d, &RuleConfig { max_depth: 100 })
            .diagnostics()
            .is_empty());
        // Findings render readably.
        assert!(deep.diagnostics()[0].to_string().contains("exceeds bound"));
    }

    #[test]
    fn findings_carry_their_scan_rule_entry() {
        // Every finding is a scan-category diagnostic with a scan-* rule
        // id and the stable DFT-1NN code of its rule-table entry.
        let n = binary_counter(8);
        let d = insert_scan(&n, &ScanConfig::new(ScanStyle::ScanSet { width: 3 })).unwrap();
        let report = lint_scan_design(&d, &RuleConfig { max_depth: 5 });
        assert!(!report.diagnostics().is_empty());
        for diag in report.diagnostics() {
            assert!(diag.rule.starts_with("scan-"), "{}", diag.rule);
            assert!(diag.code.starts_with("DFT-1"), "{}", diag.code);
            assert_eq!(diag.code, rule_code(diag.rule));
            assert_eq!(diag.category, Category::Scan);
        }
    }

    #[test]
    fn violations_carry_codes_severities_and_fixes() {
        let n = binary_counter(8);
        let d = insert_scan(&n, &ScanConfig::new(ScanStyle::ScanSet { width: 3 })).unwrap();
        let r = lint_scan_design(&d, &RuleConfig::default());
        let missing: Vec<_> = r.by_rule("scan-coverage").collect();
        assert!(!missing.is_empty());
        for x in &missing {
            assert_eq!(x.code, "DFT-102");
            assert_eq!(x.severity, Severity::Error);
            assert_eq!(x.fix, Some(FixHint::ScanConvert { storage: x.gate }));
            assert!(
                x.to_string().starts_with("error[DFT-102 scan-coverage]"),
                "{x}"
            );
        }
    }
}
