//! Severity-override configuration (`--rule-config`).
//!
//! A config file lets a project re-rank or silence rules without
//! rebuilding: promote `latch-race` to an error on an LSSD flow, mute
//! `reconvergent-fanout` notes, and so on. The format is the natural
//! TOML subset for a flat key/value table — parsed by hand because the
//! workspace takes no external dependencies:
//!
//! ```toml
//! # comments and blank lines are ignored
//! [rules]                      # optional section header
//! deep-logic = "error"         # rules named by kebab-case id…
//! DFT-010 = "off"              # …or by stable code
//! latch-race = "info"
//! ```
//!
//! Accepted severities are `"error"`, `"warning"` (or `"warn"`),
//! `"info"`, and `"off"` (or `"allow"`) to drop a rule's findings
//! entirely. Unknown rule names and malformed lines are hard errors —
//! a config typo silently doing nothing is worse than a failed run.

use std::error::Error;
use std::fmt;

use crate::diag::{LintReport, Severity};
use crate::registry::resolve_rule_name;

/// One parsed override: silence the rule, or re-rank its findings.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Action {
    Off,
    Rank(Severity),
}

/// A set of per-rule severity overrides, keyed by canonical rule id.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SeverityOverrides {
    entries: Vec<(&'static str, Action)>,
}

impl SeverityOverrides {
    /// Parses the TOML-subset config text (see the module docs for the
    /// grammar).
    pub fn parse(text: &str) -> Result<Self, ConfigError> {
        let mut entries: Vec<(&'static str, Action)> = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let lineno = i + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(section) = line.strip_prefix('[') {
                let Some(name) = section.strip_suffix(']') else {
                    return Err(ConfigError::new(lineno, "unterminated section header"));
                };
                if name.trim() != "rules" {
                    return Err(ConfigError::new(
                        lineno,
                        format!(
                            "unknown section [{}]; only [rules] is recognized",
                            name.trim()
                        ),
                    ));
                }
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(ConfigError::new(lineno, "expected `rule = \"severity\"`"));
            };
            let key = key.trim().trim_matches('"');
            let Some(rule) = resolve_rule_name(key) else {
                return Err(ConfigError::new(
                    lineno,
                    format!("unknown rule {key:?} (use a rule id or a DFT-NNN code)"),
                ));
            };
            let value = value.trim();
            let Some(value) = value.strip_prefix('"').and_then(|v| v.strip_suffix('"')) else {
                return Err(ConfigError::new(
                    lineno,
                    format!("severity for {key:?} must be a quoted string"),
                ));
            };
            let action = match value {
                "off" | "allow" => Action::Off,
                "info" => Action::Rank(Severity::Info),
                "warn" | "warning" => Action::Rank(Severity::Warning),
                "error" => Action::Rank(Severity::Error),
                other => {
                    return Err(ConfigError::new(
                        lineno,
                        format!(
                            "unknown severity {other:?} (expected error, warning, info, or off)"
                        ),
                    ));
                }
            };
            // Last write wins, like TOML would reject but linters allow.
            entries.retain(|&(r, _)| r != rule);
            entries.push((rule, action));
        }
        Ok(SeverityOverrides { entries })
    }

    /// Whether no overrides were configured.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of configured overrides.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// The rules configured `off`, by canonical name.
    ///
    /// Callers that own the [`Registry`](crate::Registry) should
    /// [`disable`](crate::Registry::disable) these *before* the run
    /// rather than rely on [`apply`](Self::apply) filtering the report:
    /// a disabled rule never executes and never forces the lazy shared
    /// analyses it would have read, which is the difference between
    /// linear and quadratic wall-clock on industrial-scale netlists.
    pub fn disabled(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.entries
            .iter()
            .filter(|(_, a)| matches!(a, Action::Off))
            .map(|&(rule, _)| rule)
    }

    /// Applies the overrides to a finished report: overridden rules get
    /// their new severity, silenced rules lose their findings, and the
    /// report is re-sorted so exit-code logic (`worst`, `is_clean`)
    /// reflects the configured ranking.
    pub fn apply(&self, report: &mut LintReport) {
        if self.is_empty() {
            return;
        }
        report.diagnostics_mut().retain_mut(|d| {
            match self.entries.iter().find(|&&(r, _)| r == d.rule) {
                Some(&(_, Action::Off)) => false,
                Some(&(_, Action::Rank(sev))) => {
                    d.severity = sev;
                    true
                }
                None => true,
            }
        });
        report.sort();
    }
}

/// A parse error in a severity-override config, with its 1-based line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConfigError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// Human-readable description of the problem.
    pub message: String,
}

impl ConfigError {
    fn new(line: usize, message: impl Into<String>) -> Self {
        ConfigError {
            line,
            message: message.into(),
        }
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::{Category, Diagnostic};
    use dft_netlist::GateId;

    fn sample_report() -> LintReport {
        let mut r = LintReport::new("demo");
        r.push(Diagnostic::new(
            "deep-logic",
            Severity::Warning,
            Category::Timing,
            GateId::from_index(1),
            "deep",
        ));
        r.push(Diagnostic::new(
            "reconvergent-fanout",
            Severity::Info,
            Category::Testability,
            GateId::from_index(2),
            "note",
        ));
        r
    }

    #[test]
    fn parses_ids_codes_comments_and_section() {
        let o = SeverityOverrides::parse(
            "# a comment\n\n[rules]\ndeep-logic = \"error\"\nDFT-011 = \"off\"\n",
        )
        .unwrap();
        assert_eq!(o.len(), 2);
        assert!(!o.is_empty());
    }

    #[test]
    fn apply_reranks_and_silences() {
        let o = SeverityOverrides::parse("deep-logic = \"error\"\nreconvergent-fanout = \"off\"\n")
            .unwrap();
        let mut r = sample_report();
        o.apply(&mut r);
        assert_eq!(r.diagnostics().len(), 1);
        assert_eq!(r.diagnostics()[0].rule, "deep-logic");
        assert_eq!(r.diagnostics()[0].severity, Severity::Error);
        assert!(r.has_errors(), "exit-code logic sees the new ranking");
    }

    #[test]
    fn empty_overrides_change_nothing() {
        let o = SeverityOverrides::parse("# nothing\n").unwrap();
        assert!(o.is_empty());
        let mut r = sample_report();
        o.apply(&mut r);
        assert_eq!(r.diagnostics().len(), 2);
    }

    #[test]
    fn last_write_wins() {
        let o = SeverityOverrides::parse("deep-logic = \"off\"\ndeep-logic = \"info\"\n").unwrap();
        assert_eq!(o.len(), 1);
        let mut r = sample_report();
        o.apply(&mut r);
        assert_eq!(
            r.by_rule("deep-logic").next().unwrap().severity,
            Severity::Info
        );
    }

    #[test]
    fn rejects_unknown_rules_sections_and_severities() {
        let e = SeverityOverrides::parse("no-such-rule = \"off\"\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.to_string().contains("unknown rule"));

        let e = SeverityOverrides::parse("[lints]\n").unwrap_err();
        assert!(e.to_string().contains("only [rules]"));

        let e = SeverityOverrides::parse("deep-logic = \"fatal\"\n").unwrap_err();
        assert!(e.to_string().contains("unknown severity"));

        let e = SeverityOverrides::parse("deep-logic = error\n").unwrap_err();
        assert!(e.to_string().contains("quoted"));

        let e = SeverityOverrides::parse("deep-logic\n").unwrap_err();
        assert!(e.to_string().contains("expected"));
    }
}
