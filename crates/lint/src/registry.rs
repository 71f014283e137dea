//! The rule type, the lookups over the rule table, and the registry
//! that runs rules over a netlist.

use dft_implic::obs::{Collector, Obs};
use dft_netlist::{GateId, Netlist};

use crate::context::{LintConfig, LintContext};
use crate::diag::{Category, Diagnostic, LintReport, Message, Severity};
use crate::rules::RULES;

/// One design rule: its stable identity and, for a netlist rule, its
/// check. Every rule is one entry of the table in [`crate::rules`].
///
/// Checks are stateless: all shared analysis lives in [`LintContext`],
/// and thresholds come from [`LintConfig`]. A check tags every finding
/// with its own entry through [`Rule::diagnostic`]. Two entries are
/// equal when their ids are (ids are unique).
#[derive(Debug)]
pub struct Rule {
    pub(crate) id: &'static str,
    pub(crate) code: &'static str,
    pub(crate) category: Category,
    pub(crate) severity: Severity,
    pub(crate) description: &'static str,
    /// Appends the rule's findings on a netlist to the report; `None`
    /// for the scan groundrules, which `dft-scan` checks over a scanned
    /// design instead.
    pub(crate) check: Option<fn(&'static Rule, &LintContext<'_>, &mut LintReport)>,
}

impl Rule {
    /// Stable kebab-case identifier (used in reports and CLI filters).
    #[must_use]
    pub fn id(&self) -> &'static str {
        self.id
    }

    /// One-line description for `tessera-lint --list-rules`.
    #[must_use]
    pub fn description(&self) -> &'static str {
        self.description
    }

    /// The aspect of the design this rule examines.
    #[must_use]
    pub fn category(&self) -> Category {
        self.category
    }

    /// Default severity of this rule's findings.
    #[must_use]
    pub fn severity(&self) -> Severity {
        self.severity
    }

    /// A finding of this rule at `gate` saying `message`, at the rule's
    /// default severity, with no related gates and no fix. The finding
    /// keeps a reference to this entry, so it carries the rule's id, code
    /// and category without copying them.
    #[must_use]
    pub fn diagnostic(&'static self, gate: GateId, message: Message) -> Diagnostic {
        Diagnostic::of(self, gate, message)
    }
}

impl PartialEq for Rule {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
    }
}

impl Eq for Rule {}

/// The stable `DFT-NNN` code of a rule id.
///
/// Codes never change once assigned (tooling keys on them across
/// versions, and severity-override configs may name them instead of the
/// kebab-case id). Built-in netlist rules take `DFT-0NN`; the scan
/// groundrules take `DFT-1NN`. Unknown rules map to `DFT-000`.
#[must_use]
pub fn rule_code(rule: &str) -> &'static str {
    RULES
        .iter()
        .find(|r| r.id == rule)
        .map_or("DFT-000", |r| r.code)
}

/// Resolves a rule id *or* a `DFT-NNN` code to the canonical rule id
/// (`None` for unknown names) — the lookup severity-override configs
/// use, so both spellings work in `--rule-config` files.
#[must_use]
pub fn resolve_rule_name(name: &str) -> Option<&'static str> {
    RULES
        .iter()
        .find(|r| r.id == name || r.code == name)
        .map(|r| r.id)
}

/// An ordered collection of rules that lints netlists.
pub struct Registry {
    rules: Vec<&'static Rule>,
}

impl Registry {
    /// The full built-in netlist rule set — see [`crate::rules`] for the
    /// list.
    #[must_use]
    pub fn with_default_rules() -> Self {
        Registry {
            rules: RULES.iter().filter(|r| r.check.is_some()).collect(),
        }
    }

    /// Removes the rule with the given id (no-op if absent).
    pub fn disable(&mut self, id: &str) {
        self.rules.retain(|r| r.id != id);
    }

    /// The registered rules, in run order.
    pub fn rules(&self) -> impl Iterator<Item = &'static Rule> + '_ {
        self.rules.iter().copied()
    }

    /// Number of registered rules.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether the registry has no rules.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Lints `netlist` with default thresholds.
    #[must_use]
    pub fn run(&self, netlist: &Netlist) -> LintReport {
        self.run_with(netlist, LintConfig::default())
    }

    /// Lints `netlist` with explicit thresholds. The report is sorted
    /// most-severe first.
    #[must_use]
    pub fn run_with(&self, netlist: &Netlist, config: LintConfig) -> LintReport {
        self.run_observed(netlist, config, None)
    }

    /// [`Registry::run_with`], observed: a `lint.rules` span with one
    /// child span per rule run, named by the rule id, whose `findings`
    /// counter is the number of findings the rule reported.
    ///
    /// The shared analyses in [`LintContext`] are computed when a rule
    /// first reads them, so a rule's span includes every shared analysis
    /// it is the first in the run to read (for example the first SCOAP
    /// rule's span holds the SCOAP computation). The report is the same
    /// with or without a collector.
    #[must_use]
    pub fn run_observed(
        &self,
        netlist: &Netlist,
        config: LintConfig,
        obs: Option<&mut dyn Collector>,
    ) -> LintReport {
        self.run_in(&LintContext::new(netlist, config), obs)
    }

    /// [`Registry::run_observed`] over a context the caller built, so
    /// the caller can go on reading the analyses the rules computed: the
    /// repair autopilot ranks a round's candidates with the implication
    /// engine its lint run built.
    #[must_use]
    pub fn run_in(&self, ctx: &LintContext<'_>, obs: Option<&mut dyn Collector>) -> LintReport {
        let mut obs = Obs::new(obs);
        obs.enter("lint.rules");
        let mut report = LintReport::new(ctx.netlist().name());
        for &rule in &self.rules {
            if let Some(check) = rule.check {
                obs.enter(rule.id);
                let before = report.diagnostics().len();
                check(rule, ctx, &mut report);
                obs.count("findings", (report.diagnostics().len() - before) as u64);
                obs.exit();
            }
        }
        report.sort();
        obs.exit();
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dft_netlist::circuits::c17;

    /// The rule table is a contract: tooling and `tessera-fix` plans key
    /// on each rule's id and code, and `--list-rules` prints each
    /// severity and category. Adding a rule appends a row here; changing
    /// a row is a breaking change.
    #[test]
    fn rule_table_rows_are_pinned() {
        use Category::{Scan, Structure, Testability, Timing};
        use Severity::{Error, Info, Warning};
        let netlist_rules = [
            ("comb-feedback", "DFT-001", Error, Structure),
            ("unused-input", "DFT-002", Warning, Structure),
            ("dead-logic", "DFT-003", Warning, Testability),
            ("constant-output", "DFT-004", Warning, Testability),
            ("excessive-fanout", "DFT-005", Warning, Structure),
            ("deep-logic", "DFT-006", Warning, Timing),
            ("latch-race", "DFT-007", Warning, Timing),
            ("uninitializable-storage", "DFT-008", Warning, Testability),
            ("hard-to-control", "DFT-009", Warning, Testability),
            ("hard-to-observe", "DFT-010", Warning, Testability),
            ("reconvergent-fanout", "DFT-011", Info, Testability),
            ("redundant-logic", "DFT-012", Warning, Testability),
            ("constant-implied-net", "DFT-013", Warning, Testability),
            ("deep-unobservable-cone", "DFT-014", Warning, Testability),
            ("implication-dead-region", "DFT-015", Warning, Testability),
            ("x-source-into-compare", "DFT-016", Warning, Testability),
            (
                "observability-dominator-bottleneck",
                "DFT-017",
                Warning,
                Testability,
            ),
            (
                "reconvergent-constant-mask",
                "DFT-018",
                Warning,
                Testability,
            ),
        ];
        let registry = Registry::with_default_rules();
        let rows: Vec<_> = registry
            .rules()
            .map(|r| (r.id(), r.code, r.severity(), r.category()))
            .collect();
        assert_eq!(rows, netlist_rules, "the default set, in run order");

        let scan_rules = [
            ("scan-comb-feedback", "DFT-101"),
            ("scan-coverage", "DFT-102"),
            ("scan-depth", "DFT-103"),
            ("scan-latch-race", "DFT-104"),
        ];
        let scan: Vec<_> = RULES
            .iter()
            .filter(|r| r.check.is_none())
            .map(|r| (r.id(), r.code))
            .collect();
        assert_eq!(scan, scan_rules);
        for r in RULES.iter().filter(|r| r.check.is_none()) {
            assert_eq!(r.category(), Scan, "{}", r.id());
        }

        // Ids are unique and kebab-case; codes are unique, well formed
        // and real; every rule is described; lookups agree with the rows.
        let mut ids: Vec<&str> = RULES.iter().map(Rule::id).collect();
        let mut codes: Vec<&str> = RULES.iter().map(|r| r.code).collect();
        ids.sort_unstable();
        ids.dedup();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(ids.len(), RULES.len(), "duplicate rule id");
        assert_eq!(codes.len(), RULES.len(), "duplicate code");
        for rule in &RULES {
            let (id, code) = (rule.id(), rule.code);
            assert!(
                id.chars().all(|c| c.is_ascii_lowercase() || c == '-'),
                "{id} is not kebab-case"
            );
            assert!(code.starts_with("DFT-") && code.len() == 7, "{code}");
            assert_ne!(code, "DFT-000", "every known rule has a real code");
            assert!(!rule.description().is_empty(), "{id} lacks a description");
            assert_eq!(rule_code(id), code);
            assert_eq!(resolve_rule_name(id), Some(id));
            assert_eq!(resolve_rule_name(code), Some(id));
        }
        assert_eq!(rule_code("no-such-rule"), "DFT-000");
        assert_eq!(resolve_rule_name("bogus"), None);
    }

    #[test]
    fn disable_removes_a_rule() {
        let mut r = Registry::with_default_rules();
        let before = r.len();
        r.disable("deep-logic");
        assert_eq!(r.len(), before - 1);
        r.disable("no-such-rule");
        assert_eq!(r.len(), before - 1);
        assert!(!r.is_empty());
    }

    #[test]
    fn a_registry_with_every_rule_disabled_reports_nothing() {
        let mut r = Registry::with_default_rules();
        for rule in &RULES {
            r.disable(rule.id());
        }
        assert!(r.is_empty());
        let report = r.run(&c17());
        assert!(report.diagnostics().is_empty());
        assert_eq!(report.design(), "c17");
    }
}
