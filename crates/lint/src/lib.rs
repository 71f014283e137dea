//! `dft-lint` — a netlist-wide DFT design-rule checker.
//!
//! Williams & Parker's survey argues that testability is a *structural*
//! property: most of the cost of testing is designed in long before a
//! test program exists, and most of it is visible by inspecting the
//! netlist. This crate turns that observation into a linter.
//!
//! # Architecture
//!
//! * [`Rule`] — one entry of the rule table in [`rules`]: a stable
//!   kebab-case id, a `DFT-NNN` code, a [`Category`], a default
//!   [`Severity`], a description and a plain `fn` check. Each rule is
//!   declared once, there; [`rule_code`] and [`resolve_rule_name`] look
//!   rules up in the same table.
//! * [`Registry`] — the table's netlist rules in run order;
//!   [`Registry::run`] lints a netlist and returns a [`LintReport`].
//! * [`LintContext`] — the netlist's memoized
//!   [`Topology`](dft_netlist::Topology) (levelization with its per-gate
//!   levels, reader lists, output mask) and the analyses every rule
//!   shares over it (SCOAP measures, constant propagation,
//!   X-propagation, dominators, reconvergence, implications), each
//!   computed at most once per run.
//! * [`Diagnostic`] — one finding, anchored to a
//!   [`GateId`](dft_netlist::GateId) with optional related gates, its
//!   rule's entry (id, stable `DFT-NNN` [code](rule_code), category),
//!   a [`Message`] template holding the values it prints (the template
//!   also fixes the hint), and optionally a machine-applicable
//!   [`FixHint`] a repair tool can expand into a concrete netlist edit.
//!   Reports render as text ([`LintReport::text`]) or JSON
//!   ([`LintReport::json`]) into any writer, through `Message`'s one
//!   formatter.
//! * [`SeverityOverrides`] — per-rule severity configuration parsed
//!   from a TOML-subset file (`tessera-lint --rule-config`), applied to
//!   finished reports.
//!
//! The rule table lives in [`rules`]; thresholds in [`LintConfig`].
//!
//! # Example
//!
//! ```
//! use dft_lint::{lint, Severity};
//! use dft_netlist::circuits::c17;
//!
//! let report = lint(&c17());
//! assert!(report.is_clean()); // nothing at Warning or above
//! for diag in report.diagnostics() {
//!     assert_eq!(diag.severity, Severity::Info); // reconvergence notes
//! }
//! ```

#![forbid(unsafe_code)]

mod config;
mod context;
mod diag;
mod fix;
mod registry;
pub mod rules;

pub use config::{ConfigError, SeverityOverrides};
pub use context::{LintConfig, LintContext};
pub use diag::{Category, Diagnostic, LintReport, Message, Severity};
pub use fix::FixHint;
pub use registry::{resolve_rule_name, rule_code, Registry, Rule};

use dft_netlist::Netlist;

/// Lints `netlist` with the full built-in rule set and default
/// thresholds. Shorthand for
/// `Registry::with_default_rules().run(netlist)`.
#[must_use]
pub fn lint(netlist: &Netlist) -> LintReport {
    Registry::with_default_rules().run(netlist)
}

/// Lints `netlist` with the full built-in rule set and explicit
/// thresholds.
#[must_use]
pub fn lint_with(netlist: &Netlist, config: LintConfig) -> LintReport {
    Registry::with_default_rules().run_with(netlist, config)
}
