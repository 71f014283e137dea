//! Structured diagnostics and the lint report with its renderers.

use std::fmt;

use dft_netlist::GateId;

use crate::fix::FixHint;
use crate::registry::rule_code;

/// How serious a diagnostic is.
///
/// The ordering is meaningful: `Info < Warning < Error`, so severity can
/// be compared and a report's worst diagnostic drives tool exit codes
/// (`tessera-lint` exits nonzero only at [`Severity::Error`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// A structural observation worth knowing, not a defect (for
    /// example reconvergent fanout).
    Info,
    /// A testability or structure problem that will cost coverage or
    /// test effort but does not invalidate the model.
    Warning,
    /// A violation that breaks the toolkit's assumptions (for example a
    /// combinational feedback loop).
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// What aspect of the design a rule examines.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Category {
    /// Netlist structure: cycles, dangling nets, fanout discipline.
    Structure,
    /// Settle-time concerns: logic depth, latch-to-latch races.
    Timing,
    /// Controllability/observability and fault-coverage concerns.
    Testability,
    /// Scan-discipline rules (the LSSD/Scan-Path groundrules).
    Scan,
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Category::Structure => "structure",
            Category::Timing => "timing",
            Category::Testability => "testability",
            Category::Scan => "scan",
        })
    }
}

/// One finding, anchored to a gate (= net) in the netlist.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable identifier of the rule that produced this (kebab-case).
    pub rule: &'static str,
    /// Stable `DFT-NNN` code of the rule (see [`crate::rule_code`]);
    /// unlike `rule`, codes are guaranteed never to be renamed.
    pub code: &'static str,
    /// Severity of this particular finding.
    pub severity: Severity,
    /// The rule's category.
    pub category: Category,
    /// The primary anchor: the gate/net the finding is about.
    pub gate: GateId,
    /// Further gates involved (rest of a feedback loop, a reconvergence
    /// meet point, the driving latch of a race path, …).
    pub related: Vec<GateId>,
    /// Human-readable description of the finding.
    pub message: String,
    /// Optional fix-it suggestion, free text.
    pub hint: Option<String>,
    /// Optional machine-applicable fix, the structured counterpart of
    /// `hint` — what `tessera-fix` expands into candidate edits.
    pub fix: Option<FixHint>,
}

impl Diagnostic {
    /// Creates a diagnostic with no related gates and no hint. The
    /// stable code is looked up from the rule id.
    #[must_use]
    pub fn new(
        rule: &'static str,
        severity: Severity,
        category: Category,
        gate: GateId,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            rule,
            code: rule_code(rule),
            severity,
            category,
            gate,
            related: Vec::new(),
            message: message.into(),
            hint: None,
            fix: None,
        }
    }

    /// Attaches a fix-it hint.
    #[must_use]
    pub fn with_hint(mut self, hint: impl Into<String>) -> Self {
        self.hint = Some(hint.into());
        self
    }

    /// Attaches a machine-applicable fix. If no free-text hint is set
    /// yet, one is derived from the fix so text renderings stay
    /// informative.
    #[must_use]
    pub fn with_fix(mut self, fix: FixHint) -> Self {
        if self.hint.is_none() {
            self.hint = Some(fix.to_string());
        }
        self.fix = Some(fix);
        self
    }

    /// Attaches related gates.
    #[must_use]
    pub fn with_related(mut self, related: Vec<GateId>) -> Self {
        self.related = related;
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{} {}] {}: {}",
            self.severity, self.code, self.rule, self.gate, self.message
        )
    }
}

/// Everything a lint run found on one design.
#[derive(Clone, Debug, Default)]
pub struct LintReport {
    design: String,
    diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// An empty report for the named design.
    #[must_use]
    pub fn new(design: impl Into<String>) -> Self {
        LintReport {
            design: design.into(),
            diagnostics: Vec::new(),
        }
    }

    /// The design name the report is about.
    #[must_use]
    pub fn design(&self) -> &str {
        &self.design
    }

    /// Adds a diagnostic.
    pub fn push(&mut self, diag: Diagnostic) {
        self.diagnostics.push(diag);
    }

    /// All diagnostics, in report order.
    #[must_use]
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Mutable access for post-run rewriting (severity overrides).
    pub(crate) fn diagnostics_mut(&mut self) -> &mut Vec<Diagnostic> {
        &mut self.diagnostics
    }

    /// Sorts diagnostics most-severe first (ties: rule id, then gate).
    ///
    /// [`crate::Registry::run`] calls this; reports built by hand (for
    /// example the scan-rule port) may prefer their construction order.
    pub fn sort(&mut self) {
        self.diagnostics.sort_by(|a, b| {
            b.severity
                .cmp(&a.severity)
                .then_with(|| a.rule.cmp(b.rule))
                .then_with(|| a.gate.cmp(&b.gate))
        });
    }

    /// Number of diagnostics at exactly `severity`.
    #[must_use]
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// The report's most severe finding, if any.
    #[must_use]
    pub fn worst(&self) -> Option<Severity> {
        self.diagnostics.iter().map(|d| d.severity).max()
    }

    /// Whether the report has no findings at warning level or above.
    ///
    /// Info-level observations (reconvergent fanout, …) do not make a
    /// design dirty.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.worst().is_none_or(|w| w < Severity::Warning)
    }

    /// Whether the report contains any error-severity finding.
    #[must_use]
    pub fn has_errors(&self) -> bool {
        self.worst() == Some(Severity::Error)
    }

    /// Diagnostics produced by one rule.
    pub fn by_rule<'a>(&'a self, rule: &'a str) -> impl Iterator<Item = &'a Diagnostic> {
        self.diagnostics.iter().filter(move |d| d.rule == rule)
    }

    /// Renders the report as human-readable text.
    #[must_use]
    pub fn to_text(&self) -> String {
        use fmt::Write;
        let mut out = String::new();
        if self.diagnostics.is_empty() {
            let _ = writeln!(out, "{}: clean (no diagnostics)", self.design);
            return out;
        }
        let _ = writeln!(
            out,
            "{}: {} diagnostic(s) ({} error(s), {} warning(s), {} note(s))",
            self.design,
            self.diagnostics.len(),
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::Info),
        );
        for d in &self.diagnostics {
            let _ = writeln!(out, "  {d}");
            if !d.related.is_empty() {
                let ids: Vec<String> = d.related.iter().map(ToString::to_string).collect();
                let _ = writeln!(out, "      related: {}", ids.join(", "));
            }
            if let Some(hint) = &d.hint {
                let _ = writeln!(out, "      hint: {hint}");
            }
        }
        out
    }

    /// Renders the report as a JSON object (machine-readable form of
    /// [`LintReport::to_text`]; string escaping via the shared
    /// [`dft_json`] primitives, RFC 8259).
    #[must_use]
    pub fn to_json(&self) -> String {
        use dft_json::escaped as json_string;
        use fmt::Write;
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"design\": {},", json_string(&self.design));
        let _ = writeln!(out, "  \"clean\": {},", self.is_clean());
        let _ = writeln!(
            out,
            "  \"summary\": {{ \"error\": {}, \"warning\": {}, \"info\": {} }},",
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::Info),
        );
        out.push_str("  \"diagnostics\": [");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    { ");
            let _ = write!(
                out,
                "\"rule\": {}, \"code\": {}, \"severity\": \"{}\", \"category\": \"{}\", \
                 \"gate\": \"{}\", \"gate_index\": {}, ",
                json_string(d.rule),
                json_string(d.code),
                d.severity,
                d.category,
                d.gate,
                d.gate.index(),
            );
            out.push_str("\"related\": [");
            for (j, r) in d.related.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "\"{r}\"");
            }
            let _ = write!(out, "], \"message\": {}, ", json_string(&d.message));
            match &d.hint {
                Some(h) => {
                    let _ = write!(out, "\"hint\": {}, ", json_string(h));
                }
                None => out.push_str("\"hint\": null, "),
            }
            match &d.fix {
                Some(fix) => {
                    let _ = write!(out, "\"fix\": {}", fix.to_json());
                }
                None => out.push_str("\"fix\": null"),
            }
            out.push_str(" }");
        }
        if !self.diagnostics.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> LintReport {
        let mut r = LintReport::new("demo");
        r.push(
            Diagnostic::new(
                "deep-logic",
                Severity::Warning,
                Category::Timing,
                GateId::from_index(7),
                "logic level 51 exceeds bound 50",
            )
            .with_hint("pipeline the cone"),
        );
        r.push(Diagnostic::new(
            "comb-feedback",
            Severity::Error,
            Category::Structure,
            GateId::from_index(3),
            "combinational feedback loop",
        ));
        r.push(
            Diagnostic::new(
                "reconvergent-fanout",
                Severity::Info,
                Category::Testability,
                GateId::from_index(1),
                "fanout reconverges at g4",
            )
            .with_related(vec![GateId::from_index(4)]),
        );
        r
    }

    #[test]
    fn severity_orders() {
        assert!(Severity::Info < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
    }

    #[test]
    fn counts_and_worst() {
        let r = sample();
        assert_eq!(r.count(Severity::Error), 1);
        assert_eq!(r.count(Severity::Warning), 1);
        assert_eq!(r.count(Severity::Info), 1);
        assert_eq!(r.worst(), Some(Severity::Error));
        assert!(r.has_errors());
        assert!(!r.is_clean());
        assert!(LintReport::new("x").is_clean());
        assert_eq!(LintReport::new("x").worst(), None);
    }

    #[test]
    fn info_only_reports_are_clean() {
        let mut r = LintReport::new("x");
        r.push(Diagnostic::new(
            "reconvergent-fanout",
            Severity::Info,
            Category::Testability,
            GateId::from_index(0),
            "note",
        ));
        assert!(r.is_clean());
        assert!(!r.has_errors());
    }

    #[test]
    fn sort_puts_errors_first() {
        let mut r = sample();
        r.sort();
        let sevs: Vec<Severity> = r.diagnostics().iter().map(|d| d.severity).collect();
        assert_eq!(
            sevs,
            vec![Severity::Error, Severity::Warning, Severity::Info]
        );
    }

    #[test]
    fn text_render_shows_everything() {
        let t = sample().to_text();
        assert!(t.contains("demo: 3 diagnostic(s) (1 error(s), 1 warning(s), 1 note(s))"));
        assert!(t.contains("warning[DFT-006 deep-logic] g7: logic level 51 exceeds bound 50"));
        assert!(t.contains("hint: pipeline the cone"));
        assert!(t.contains("related: g4"));
        assert!(LintReport::new("ok").to_text().contains("clean"));
    }

    #[test]
    fn json_render_is_well_formed() {
        let j = sample().to_json();
        assert!(j.contains("\"design\": \"demo\""));
        assert!(j.contains("\"summary\": { \"error\": 1, \"warning\": 1, \"info\": 1 }"));
        assert!(j.contains("\"rule\": \"comb-feedback\""));
        assert!(j.contains("\"code\": \"DFT-001\""));
        assert!(j.contains("\"gate\": \"g3\""));
        assert!(j.contains("\"gate_index\": 3"));
        assert!(j.contains("\"hint\": null"));
        assert!(j.contains("\"fix\": null"));
        assert!(j.contains("\"related\": [\"g4\"]"));
        // Balanced braces/brackets (no quoting issues in our own text).
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn with_fix_derives_hint_and_renders_json() {
        let d = Diagnostic::new(
            "dead-logic",
            Severity::Warning,
            Category::Testability,
            GateId::from_index(2),
            "never observed",
        )
        .with_fix(FixHint::ObservePoint {
            net: GateId::from_index(2),
        });
        assert_eq!(d.code, "DFT-003");
        assert_eq!(
            d.hint.as_deref(),
            Some("insert an observation test point at g2")
        );
        let mut r = LintReport::new("demo");
        r.push(d);
        let j = r.to_json();
        assert!(j.contains(
            "\"fix\": { \"kind\": \"observe-point\", \"target\": \"g2\", \"target_index\": 2 }"
        ));
    }

    #[test]
    fn explicit_hint_survives_with_fix() {
        let d = Diagnostic::new(
            "dead-logic",
            Severity::Warning,
            Category::Testability,
            GateId::from_index(2),
            "never observed",
        )
        .with_hint("custom advice")
        .with_fix(FixHint::ObservePoint {
            net: GateId::from_index(2),
        });
        assert_eq!(d.hint.as_deref(), Some("custom advice"));
        assert!(d.fix.is_some());
    }

    #[test]
    fn json_strings_are_escaped() {
        let mut r = LintReport::new("a\"b\\c");
        r.push(Diagnostic::new(
            "dead-logic",
            Severity::Warning,
            Category::Testability,
            GateId::from_index(0),
            "x\ny and \u{1}",
        ));
        let j = r.to_json();
        assert!(j.contains("\"design\": \"a\\\"b\\\\c\""));
        assert!(j.contains("\"message\": \"x\\ny and \\u0001\""));
    }

    /// Byte-identical to the output of the pre-`dft-json` emitter with
    /// its private escaping helper (captured on c17 before the
    /// refactor). The pretty layout is this crate's own; only the
    /// string escaping moved to the shared crate, and neither may
    /// drift: downstream tooling diffs these reports.
    #[test]
    fn json_bytes_match_the_legacy_emitter() {
        const HINT: &str = "correlated paths can mask faults; \
                            single-path sensitization arguments do not hold at the meet gate";
        let mut r = LintReport::new("c17");
        r.push(
            Diagnostic::new(
                "reconvergent-fanout",
                Severity::Info,
                Category::Testability,
                GateId::from_index(2),
                "fanout branches reconverge at g9",
            )
            .with_related(vec![GateId::from_index(9)])
            .with_hint(HINT),
        );
        r.push(
            Diagnostic::new(
                "reconvergent-fanout",
                Severity::Info,
                Category::Testability,
                GateId::from_index(6),
                "fanout branches reconverge at g10",
            )
            .with_related(vec![GateId::from_index(10)])
            .with_hint(HINT),
        );
        let golden = concat!(
            "{\n",
            "  \"design\": \"c17\",\n",
            "  \"clean\": true,\n",
            "  \"summary\": { \"error\": 0, \"warning\": 0, \"info\": 2 },\n",
            "  \"diagnostics\": [\n",
            "    { \"rule\": \"reconvergent-fanout\", \"code\": \"DFT-011\", ",
            "\"severity\": \"info\", \"category\": \"testability\", ",
            "\"gate\": \"g2\", \"gate_index\": 2, \"related\": [\"g9\"], ",
            "\"message\": \"fanout branches reconverge at g9\", ",
            "\"hint\": \"correlated paths can mask faults; single-path ",
            "sensitization arguments do not hold at the meet gate\", ",
            "\"fix\": null },\n",
            "    { \"rule\": \"reconvergent-fanout\", \"code\": \"DFT-011\", ",
            "\"severity\": \"info\", \"category\": \"testability\", ",
            "\"gate\": \"g6\", \"gate_index\": 6, \"related\": [\"g10\"], ",
            "\"message\": \"fanout branches reconverge at g10\", ",
            "\"hint\": \"correlated paths can mask faults; single-path ",
            "sensitization arguments do not hold at the meet gate\", ",
            "\"fix\": null }\n",
            "  ]\n",
            "}\n",
        );
        assert_eq!(r.to_json(), golden);
    }
}
