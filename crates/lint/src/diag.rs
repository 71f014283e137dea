//! Structured diagnostics, their message templates, and the lint report
//! with its renderers.

use std::fmt::{self, Write as _};

use dft_implic::UntestableReason;
use dft_json::EscapeWriter;
use dft_netlist::{GateId, GateKind};

use crate::fix::FixHint;
use crate::registry::Rule;

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

/// What a finding says: one variant per message template, holding only
/// the values that template prints.
///
/// A [`Diagnostic`] stores its message as one of these, not as text, so
/// a finding allocates nothing of its own: only [`Message::UnusedInput`]'s
/// input name and [`Message::Text`] own their text. The `Display` impl is
/// the one formatter every rendering of a message goes through
/// ([`Diagnostic`]'s `Display`, [`LintReport::text`] and
/// [`LintReport::json`]), and [`Message::hint`] is each template's fix-it
/// sentence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Message {
    /// Free text, from [`Diagnostic::new`]. It has no template hint, so
    /// the finding's hint is its fix's text, if it has a fix.
    Text(Box<str>),
    /// `comb-feedback`: a combinational loop through `gates` gates.
    FeedbackLoop {
        /// Gates on the loop.
        gates: usize,
    },
    /// `unused-input`: the primary input `name` drives nothing.
    UnusedInput {
        /// The input's name (`?` when it has none).
        name: Box<str>,
    },
    /// `dead-logic`: no primary output is reachable from the gate.
    Unreachable,
    /// `constant-output`: the gate's output is always `value`.
    ConstantOutput {
        /// The constant.
        value: bool,
    },
    /// `constant-output`: input `pin` of a `kind` gate is always
    /// `value`, the kind's noncontrolling value.
    TiedPin {
        /// The tied input pin.
        pin: usize,
        /// The value it always holds.
        value: bool,
        /// The reading gate's kind.
        kind: GateKind,
    },
    /// `excessive-fanout`: the net drives `pins` input pins.
    Fanout {
        /// Input pins the net drives.
        pins: usize,
        /// The configured bound.
        limit: usize,
    },
    /// `deep-logic`: the gate sits at logic level `level`.
    DeepLogic {
        /// The gate's level.
        level: u32,
        /// The configured bound.
        bound: u32,
    },
    /// `latch-race`: the data input is driven directly by latch `driver`.
    LatchRace {
        /// The driving storage element.
        driver: GateId,
    },
    /// `uninitializable-storage`: no input sequence initializes the
    /// storage element.
    Uninitializable,
    /// `hard-to-control`: the net's controllability cost is `cost`.
    HardToControl {
        /// The cheaper of CC0 and CC1.
        cost: u32,
        /// The configured limit.
        limit: u32,
    },
    /// `hard-to-observe`: the net's observability cost is `cost`.
    HardToObserve {
        /// The net's CO.
        cost: u32,
        /// The configured limit.
        limit: u32,
    },
    /// `reconvergent-fanout`: the stem's branches reconverge at `meet`.
    Reconverges {
        /// The meet gate.
        meet: GateId,
    },
    /// `redundant-logic`: every stuck-at fault of a `kind` gate is
    /// statically untestable; `witness` is why the last one is.
    Redundant {
        /// The gate's kind.
        kind: GateKind,
        /// The verdict of the gate's last fault.
        witness: UntestableReason,
    },
    /// `constant-implied-net`: the implication closure proves the net
    /// constant `value`.
    ImpliedConstant {
        /// The constant.
        value: bool,
    },
    /// `deep-unobservable-cone`: the cone exit's observability cost is
    /// `cost`, and `buried` more nets of its cone are over `limit`.
    BuriedCone {
        /// The exit's CO.
        cost: u32,
        /// The configured deep-cone limit.
        limit: u32,
        /// Further over-limit nets in the cone.
        buried: usize,
    },
    /// `implication-dead-region`: the net is provably constant `value`,
    /// and `gates` gates exist only to feed it.
    DeadRegion {
        /// The constant.
        value: bool,
        /// Gates in the private region.
        gates: usize,
    },
    /// `x-source-into-compare`: a `kind` comparison consumes a power-up X
    /// from `storage`.
    XIntoCompare {
        /// The comparison's kind.
        kind: GateKind,
        /// The first uninitializable storage element feeding it.
        storage: GateId,
    },
    /// `observability-dominator-bottleneck`: every observation path of
    /// `gates` gates runs through the net, whose CO is `cost`.
    Funnel {
        /// Gates the net dominates.
        gates: usize,
        /// The net's CO.
        cost: u32,
        /// The configured limit.
        limit: u32,
    },
    /// `reconvergent-constant-mask`: the stem's branches reconverge at
    /// `meet`, which is provably constant `value`.
    ConstantMeet {
        /// The constant meet gate.
        meet: GateId,
        /// Its constant.
        value: bool,
    },
    /// `scan-comb-feedback`: the design has a combinational cycle.
    ScanCycle,
    /// `scan-coverage`: the storage element is not on the scan structure.
    Unscanned,
    /// `scan-depth`: the gate sits at level `level` between storage
    /// stages.
    ScanDepth {
        /// The gate's level.
        level: u32,
        /// The configured bound.
        bound: u32,
    },
    /// `scan-latch-race`: the data input is driven directly by latch
    /// `driver`.
    ScanLatchRace {
        /// The driving storage element.
        driver: GateId,
    },
}

impl Message {
    /// The template's fix-it sentence; `None` for [`Message::Text`].
    #[must_use]
    pub fn hint(&self) -> Option<&'static str> {
        Some(match self {
            Message::Text(_) => return None,
            Message::FeedbackLoop { .. } => {
                "break the loop with a storage element or redesign the asynchronous latch"
            }
            Message::UnusedInput { .. } => "connect the input or drop the pin",
            Message::Unreachable => "mark an output or add an observation test point (§III-B)",
            Message::ConstantOutput { .. } => {
                "fold the constant into the fanout or remove the redundant logic"
            }
            Message::TiedPin { .. } => "drop the pin or the constant driver",
            Message::Fanout { .. } => "buffer the net or split the load tree",
            Message::DeepLogic { .. } => {
                "deep cones defeat the settle-time discipline; pipeline or retime"
            }
            Message::LatchRace { .. } => {
                "insert logic between the latches or use a master/slave (LSSD SRL) cell"
            }
            Message::Uninitializable => {
                "add a CLEAR/PRESET line (§III-B) or place the latch on a scan chain (§IV)"
            }
            Message::HardToControl { .. } => "insert a control test point near this net (§III-B)",
            Message::HardToObserve { .. } => {
                "route the net to an observation test point or spare output pin"
            }
            Message::Reconverges { .. } => {
                "correlated paths can mask faults; single-path sensitization \
                 arguments do not hold at the meet gate"
            }
            Message::Redundant { .. } => {
                "the gate is provably redundant: remove it, or add a control/observation \
                 test point if it exists for a reason (§I-B, §III-B)"
            }
            Message::ImpliedConstant { .. } => {
                "the constant comes from reconvergent structure; simplify the logic or \
                 accept the redundant faults (§I-B)"
            }
            Message::BuriedCone { .. } => {
                "one observation test point at the cone exit rescues the whole \
                 buried region (§III-B)"
            }
            Message::DeadRegion { .. } => {
                "fold the net to its constant and delete the private region (§I-B \
                 redundancy removal); function is preserved because the stuck-at \
                 fault at the fold point is untestable"
            }
            Message::XIntoCompare { .. } => {
                "scan the uninitializable storage (§IV) or give it a CLEAR/PRESET \
                 line so the comparison settles (§III-B)"
            }
            Message::Funnel { .. } => {
                "an observation test point at the funnel rescues the whole dominated \
                 region with one pin (§III-B)"
            }
            Message::ConstantMeet { .. } => {
                "the reconvergent structure cancels; fold the meet to its constant \
                 or redesign the stem logic (§I-B)"
            }
            Message::ScanCycle => {
                "level-sensitive operation is impossible around an asynchronous loop"
            }
            Message::Unscanned => {
                "partial access defeats the combinational reduction; extend the chain"
            }
            Message::ScanDepth { .. } => {
                "data must settle within the clock phase; pipeline the cone"
            }
            Message::ScanLatchRace { .. } => {
                "use a two-phase (master/slave) cell or insert logic between"
            }
        })
    }
}

impl fmt::Display for Message {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Message::Text(ref text) => f.write_str(text),
            Message::FeedbackLoop { gates } => {
                write!(f, "combinational feedback loop through {gates} gate(s)")
            }
            Message::UnusedInput { ref name } => {
                write!(f, "primary input '{name}' drives nothing")
            }
            Message::Unreachable => {
                f.write_str("no primary output is structurally reachable from this gate")
            }
            Message::ConstantOutput { value } => {
                let v = u8::from(value);
                write!(
                    f,
                    "output is constant {v} for every input assignment; \
                     stuck-at-{v} here is untestable"
                )
            }
            Message::TiedPin { pin, value, kind } => {
                let v = u8::from(value);
                write!(
                    f,
                    "input pin {pin} is always {v} (the noncontrolling value \
                     for {kind}): its stuck-at-{v} fault is untestable"
                )
            }
            Message::Fanout { pins, limit } => {
                write!(f, "net drives {pins} input pins (limit {limit})")
            }
            Message::DeepLogic { level, bound } => {
                write!(f, "logic level {level} exceeds bound {bound}")
            }
            Message::LatchRace { driver } => write!(
                f,
                "data input is driven directly by latch {driver}: \
                 a race unless the cell is two-phase"
            ),
            Message::Uninitializable => {
                f.write_str("storage element can never be initialized from the primary inputs")
            }
            Message::HardToControl { cost, limit } => {
                write!(f, "controllability cost {cost} exceeds the limit {limit}")
            }
            Message::HardToObserve { cost, limit } => {
                write!(f, "observability cost {cost} exceeds the limit {limit}")
            }
            Message::Reconverges { meet } => write!(f, "fanout branches reconverge at {meet}"),
            Message::Redundant { kind, witness } => write!(
                f,
                "every stuck-at fault on this {kind} gate is statically untestable \
                 (e.g. {witness})"
            ),
            Message::ImpliedConstant { value } => {
                let v = u8::from(value);
                write!(
                    f,
                    "implication closure proves this net constant {v} (plain constant \
                     propagation cannot); stuck-at-{v} here is untestable"
                )
            }
            Message::BuriedCone {
                cost,
                limit,
                buried,
            } => write!(
                f,
                "observability cost {cost} exceeds {limit} and {buried} more net(s) in this \
                 cone are over the limit too"
            ),
            Message::DeadRegion { value, gates } => write!(
                f,
                "net is provably constant {} and {gates} gate(s) exist only to feed it",
                u8::from(value)
            ),
            Message::XIntoCompare { kind, storage } => write!(
                f,
                "{kind} comparison consumes a power-up X from uninitializable \
                 storage {storage}; its result is undefined on every cycle"
            ),
            Message::Funnel { gates, cost, limit } => write!(
                f,
                "every observation path of {gates} gate(s) funnels through this net, \
                 whose own observability cost {cost} exceeds the limit {limit}"
            ),
            Message::ConstantMeet { meet, value } => write!(
                f,
                "fanout branches reconverge at {meet}, which is provably constant {}: \
                 stem faults are masked along these paths",
                u8::from(value)
            ),
            Message::ScanCycle => f.write_str("combinational cycle"),
            Message::Unscanned => {
                f.write_str("storage element not accessible through the scan structure")
            }
            Message::ScanDepth { level, bound } => write!(f, "level {level} exceeds bound {bound}"),
            Message::ScanLatchRace { driver } => {
                write!(f, "data input driven directly by latch {driver}")
            }
        }
    }
}

/// One finding, anchored to a gate (= net) in the netlist.
///
/// A finding stores only what is specific to it: its rule's table entry
/// (which holds the rule's id, code and category), its severity, the
/// gates it names, its fix and its [`Message`] values. That is 72 bytes,
/// and no heap allocation unless it names related gates or owns text;
/// messages and hints are rendered when the report is written.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    rule: &'static Rule,
    /// Severity of this particular finding: the rule's default unless a
    /// severity override re-ranked it.
    pub severity: Severity,
    /// The primary anchor: the gate/net the finding is about.
    pub gate: GateId,
    /// Further gates involved (rest of a feedback loop, a reconvergence
    /// meet point, the driving latch of a race path, …).
    pub related: Vec<GateId>,
    /// Optional machine-applicable fix — what `tessera-fix` expands into
    /// candidate edits.
    pub fix: Option<FixHint>,
    message: Message,
}

impl Diagnostic {
    /// A free-text finding of `rule` at `gate`, at the rule's default
    /// severity, with no related gates and no fix. Built-in checks use
    /// [`Rule::diagnostic`] with a message template instead.
    #[must_use]
    pub fn new(rule: &'static Rule, gate: GateId, message: impl Into<Box<str>>) -> Self {
        rule.diagnostic(gate, Message::Text(message.into()))
    }

    /// A finding of `rule` at `gate` saying `message`, at the rule's
    /// default severity.
    pub(crate) fn of(rule: &'static Rule, gate: GateId, message: Message) -> Self {
        Diagnostic {
            rule,
            severity: rule.severity(),
            gate,
            related: Vec::new(),
            fix: None,
            message,
        }
    }

    /// Attaches a machine-applicable fix. A finding whose message has no
    /// template hint ([`Message::Text`]) renders the fix's text as its
    /// hint.
    #[must_use]
    pub fn with_fix(mut self, fix: FixHint) -> Self {
        self.fix = Some(fix);
        self
    }

    /// Attaches related gates.
    #[must_use]
    pub fn with_related(mut self, related: Vec<GateId>) -> Self {
        self.related = related;
        self
    }

    /// Stable kebab-case id of the rule that produced this finding.
    #[must_use]
    pub fn rule(&self) -> &'static str {
        self.rule.id()
    }

    /// Stable `DFT-NNN` code of the rule (see [`crate::rule_code`]);
    /// unlike the id, codes are guaranteed never to be renamed.
    #[must_use]
    pub fn code(&self) -> &'static str {
        self.rule.code
    }

    /// The rule's category.
    #[must_use]
    pub fn category(&self) -> Category {
        self.rule.category()
    }

    /// What the finding says; its `Display` renders the text.
    #[must_use]
    pub fn message(&self) -> &Message {
        &self.message
    }

    /// The fix-it hint: the message template's sentence, or, for free
    /// text, the text of the fix. `None` for free text without a fix.
    #[must_use]
    pub fn hint(&self) -> Option<impl fmt::Display + '_> {
        match (self.message.hint(), &self.fix) {
            (Some(text), _) => Some(Hint::Template(text)),
            (None, Some(fix)) => Some(Hint::Fix(fix)),
            (None, None) => None,
        }
    }
}

/// What [`Diagnostic::hint`] renders.
enum Hint<'a> {
    Template(&'static str),
    Fix(&'a FixHint),
}

impl fmt::Display for Hint<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Hint::Template(text) => f.write_str(text),
            Hint::Fix(fix) => fix.fmt(f),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{} {}] {}: {}",
            self.severity,
            self.code(),
            self.rule(),
            self.gate,
            self.message
        )
    }
}

/// Writes `value` as a JSON string literal, quotes included.
fn json_string(f: &mut fmt::Formatter<'_>, value: impl fmt::Display) -> fmt::Result {
    f.write_char('"')?;
    write!(EscapeWriter(&mut *f), "{value}")?;
    f.write_char('"')
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
                .then_with(|| a.rule().cmp(b.rule()))
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
        self.diagnostics.iter().filter(move |d| d.rule() == rule)
    }

    /// The report as human-readable text, as a `Display` value: write it
    /// into any [`fmt::Write`] or [`std::io::Write`] without building a
    /// `String` first.
    #[must_use]
    pub fn text(&self) -> impl fmt::Display + '_ {
        fmt::from_fn(|f| self.write_text(f))
    }

    /// The report as one JSON object (no trailing newline), as a
    /// `Display` value: write it into any [`fmt::Write`] or
    /// [`std::io::Write`] without building a `String` first. String
    /// escaping follows the shared [`dft_json`] primitives (RFC 8259).
    #[must_use]
    pub fn json(&self) -> impl fmt::Display + '_ {
        fmt::from_fn(|f| self.write_json(f))
    }

    /// Renders [`LintReport::text`] into a `String`.
    #[must_use]
    pub fn to_text(&self) -> String {
        self.text().to_string()
    }

    /// Renders [`LintReport::json`] into a `String`, followed by a
    /// newline.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!("{}\n", self.json())
    }

    fn write_text(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.diagnostics.is_empty() {
            return writeln!(f, "{}: clean (no diagnostics)", self.design);
        }
        writeln!(
            f,
            "{}: {} diagnostic(s) ({} error(s), {} warning(s), {} note(s))",
            self.design,
            self.diagnostics.len(),
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::Info),
        )?;
        for d in &self.diagnostics {
            writeln!(f, "  {d}")?;
            if let Some((first, rest)) = d.related.split_first() {
                write!(f, "      related: {first}")?;
                for r in rest {
                    write!(f, ", {r}")?;
                }
                f.write_char('\n')?;
            }
            if let Some(hint) = d.hint() {
                writeln!(f, "      hint: {hint}")?;
            }
        }
        Ok(())
    }

    fn write_json(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("{\n  \"design\": ")?;
        json_string(f, &self.design)?;
        writeln!(f, ",\n  \"clean\": {},", self.is_clean())?;
        writeln!(
            f,
            "  \"summary\": {{ \"error\": {}, \"warning\": {}, \"info\": {} }},",
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::Info),
        )?;
        f.write_str("  \"diagnostics\": [")?;
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                f.write_char(',')?;
            }
            f.write_str("\n    { \"rule\": ")?;
            json_string(f, d.rule())?;
            f.write_str(", \"code\": ")?;
            json_string(f, d.code())?;
            write!(
                f,
                ", \"severity\": \"{}\", \"category\": \"{}\", \"gate\": \"{}\", \
                 \"gate_index\": {}, \"related\": [",
                d.severity,
                d.category(),
                d.gate,
                d.gate.index(),
            )?;
            for (j, r) in d.related.iter().enumerate() {
                if j > 0 {
                    f.write_str(", ")?;
                }
                write!(f, "\"{r}\"")?;
            }
            f.write_str("], \"message\": ")?;
            json_string(f, &d.message)?;
            f.write_str(", \"hint\": ")?;
            match d.hint() {
                Some(hint) => json_string(f, hint)?,
                None => f.write_str("null")?,
            }
            f.write_str(", \"fix\": ")?;
            match &d.fix {
                Some(fix) => write!(f, "{}", fix.json())?,
                None => f.write_str("null")?,
            }
            f.write_str(" }")?;
        }
        if !self.diagnostics.is_empty() {
            f.write_str("\n  ")?;
        }
        f.write_str("]\n}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::RULES;

    fn rule(id: &str) -> &'static Rule {
        RULES
            .iter()
            .find(|r| r.id() == id)
            .expect("a rule-table id")
    }

    fn g(index: usize) -> GateId {
        GateId::from_index(index)
    }

    fn sample() -> LintReport {
        let mut r = LintReport::new("demo");
        r.push(rule("deep-logic").diagnostic(
            g(7),
            Message::DeepLogic {
                level: 51,
                bound: 50,
            },
        ));
        r.push(Diagnostic::new(
            rule("comb-feedback"),
            g(3),
            "combinational feedback loop",
        ));
        r.push(
            rule("reconvergent-fanout")
                .diagnostic(g(1), Message::Reconverges { meet: g(4) })
                .with_related(vec![g(4)]),
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
        r.push(Diagnostic::new(rule("reconvergent-fanout"), g(0), "note"));
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
        assert!(
            t.contains("hint: deep cones defeat the settle-time discipline; pipeline or retime")
        );
        assert!(t.contains("related: g4"));
        assert!(LintReport::new("ok").to_text().contains("clean"));
        assert_eq!(t, sample().text().to_string());
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
        assert_eq!(j, format!("{}\n", sample().json()));
    }

    #[test]
    fn free_text_takes_its_hint_from_the_fix() {
        let d = Diagnostic::new(rule("dead-logic"), g(2), "never observed");
        assert!(d.hint().is_none());
        let d = d.with_fix(FixHint::ObservePoint { net: g(2) });
        assert_eq!(d.code(), "DFT-003");
        assert_eq!(d.category(), Category::Testability);
        assert_eq!(
            d.hint().map(|h| h.to_string()).as_deref(),
            Some("insert an observation test point at g2")
        );
        let mut r = LintReport::new("demo");
        r.push(d);
        let j = r.to_json();
        assert!(j.contains(
            "\"fix\": { \"kind\": \"observe-point\", \"target\": \"g2\", \"target_index\": 2 }"
        ));
        assert!(j.contains("\"hint\": \"insert an observation test point at g2\""));
    }

    #[test]
    fn a_template_hint_wins_over_the_fix_text() {
        let d = rule("dead-logic")
            .diagnostic(g(2), Message::Unreachable)
            .with_fix(FixHint::ObservePoint { net: g(2) });
        assert_eq!(
            d.hint().map(|h| h.to_string()).as_deref(),
            Some("mark an output or add an observation test point (§III-B)")
        );
        assert!(d.fix.is_some());
    }

    /// Every template renders the text and hint its rule has always
    /// printed: downstream tooling diffs these reports, and the goldens
    /// cannot reach every template (a scan cycle stops scan insertion
    /// before the groundrules run).
    #[test]
    fn every_template_renders_its_text_and_hint() {
        use GateKind::{And, Or, Xor};
        let witness = UntestableReason::Unobservable { origin: g(9) };
        let cases = [
            (
                Message::FeedbackLoop { gates: 3 },
                "combinational feedback loop through 3 gate(s)",
                "break the loop with a storage element or redesign the asynchronous latch",
            ),
            (
                Message::UnusedInput { name: "nc".into() },
                "primary input 'nc' drives nothing",
                "connect the input or drop the pin",
            ),
            (
                Message::Unreachable,
                "no primary output is structurally reachable from this gate",
                "mark an output or add an observation test point (§III-B)",
            ),
            (
                Message::ConstantOutput { value: true },
                "output is constant 1 for every input assignment; stuck-at-1 here is untestable",
                "fold the constant into the fanout or remove the redundant logic",
            ),
            (
                Message::TiedPin {
                    pin: 1,
                    value: false,
                    kind: Or,
                },
                "input pin 1 is always 0 (the noncontrolling value for OR): \
                 its stuck-at-0 fault is untestable",
                "drop the pin or the constant driver",
            ),
            (
                Message::Fanout { pins: 3, limit: 2 },
                "net drives 3 input pins (limit 2)",
                "buffer the net or split the load tree",
            ),
            (
                Message::DeepLogic {
                    level: 51,
                    bound: 50,
                },
                "logic level 51 exceeds bound 50",
                "deep cones defeat the settle-time discipline; pipeline or retime",
            ),
            (
                Message::LatchRace { driver: g(4) },
                "data input is driven directly by latch g4: a race unless the cell is two-phase",
                "insert logic between the latches or use a master/slave (LSSD SRL) cell",
            ),
            (
                Message::Uninitializable,
                "storage element can never be initialized from the primary inputs",
                "add a CLEAR/PRESET line (§III-B) or place the latch on a scan chain (§IV)",
            ),
            (
                Message::HardToControl {
                    cost: 300,
                    limit: 250,
                },
                "controllability cost 300 exceeds the limit 250",
                "insert a control test point near this net (§III-B)",
            ),
            (
                Message::HardToObserve {
                    cost: 300,
                    limit: 250,
                },
                "observability cost 300 exceeds the limit 250",
                "route the net to an observation test point or spare output pin",
            ),
            (
                Message::Reconverges { meet: g(9) },
                "fanout branches reconverge at g9",
                "correlated paths can mask faults; single-path sensitization arguments \
                 do not hold at the meet gate",
            ),
            (
                Message::Redundant { kind: And, witness },
                "every stuck-at fault on this AND gate is statically untestable (e.g. every \
                 sensitized path from g9 to an output is statically blocked)",
                "the gate is provably redundant: remove it, or add a control/observation \
                 test point if it exists for a reason (§I-B, §III-B)",
            ),
            (
                Message::ImpliedConstant { value: false },
                "implication closure proves this net constant 0 (plain constant propagation \
                 cannot); stuck-at-0 here is untestable",
                "the constant comes from reconvergent structure; simplify the logic or \
                 accept the redundant faults (§I-B)",
            ),
            (
                Message::BuriedCone {
                    cost: 400,
                    limit: 350,
                    buried: 5,
                },
                "observability cost 400 exceeds 350 and 5 more net(s) in this cone are \
                 over the limit too",
                "one observation test point at the cone exit rescues the whole buried \
                 region (§III-B)",
            ),
            (
                Message::DeadRegion {
                    value: true,
                    gates: 2,
                },
                "net is provably constant 1 and 2 gate(s) exist only to feed it",
                "fold the net to its constant and delete the private region (§I-B \
                 redundancy removal); function is preserved because the stuck-at fault \
                 at the fold point is untestable",
            ),
            (
                Message::XIntoCompare {
                    kind: Xor,
                    storage: g(5),
                },
                "XOR comparison consumes a power-up X from uninitializable storage g5; \
                 its result is undefined on every cycle",
                "scan the uninitializable storage (§IV) or give it a CLEAR/PRESET line so \
                 the comparison settles (§III-B)",
            ),
            (
                Message::Funnel {
                    gates: 20,
                    cost: 300,
                    limit: 250,
                },
                "every observation path of 20 gate(s) funnels through this net, whose own \
                 observability cost 300 exceeds the limit 250",
                "an observation test point at the funnel rescues the whole dominated region \
                 with one pin (§III-B)",
            ),
            (
                Message::ConstantMeet {
                    meet: g(6),
                    value: false,
                },
                "fanout branches reconverge at g6, which is provably constant 0: stem faults \
                 are masked along these paths",
                "the reconvergent structure cancels; fold the meet to its constant or \
                 redesign the stem logic (§I-B)",
            ),
            (
                Message::ScanCycle,
                "combinational cycle",
                "level-sensitive operation is impossible around an asynchronous loop",
            ),
            (
                Message::Unscanned,
                "storage element not accessible through the scan structure",
                "partial access defeats the combinational reduction; extend the chain",
            ),
            (
                Message::ScanDepth { level: 6, bound: 5 },
                "level 6 exceeds bound 5",
                "data must settle within the clock phase; pipeline the cone",
            ),
            (
                Message::ScanLatchRace { driver: g(4) },
                "data input driven directly by latch g4",
                "use a two-phase (master/slave) cell or insert logic between",
            ),
        ];
        for (message, text, hint) in cases {
            assert_eq!(message.to_string(), text);
            assert_eq!(message.hint(), Some(hint), "{text}");
        }
        assert_eq!(Message::Text("free".into()).hint(), None);
    }

    #[test]
    fn a_finding_costs_at_most_72_bytes() {
        assert!(std::mem::size_of::<Diagnostic>() <= 72);
        assert!(std::mem::size_of::<Message>() <= 24);
    }

    #[test]
    fn json_strings_are_escaped() {
        let mut r = LintReport::new("a\"b\\c");
        r.push(Diagnostic::new(rule("dead-logic"), g(0), "x\ny and \u{1}"));
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
        let mut r = LintReport::new("c17");
        for (stem, meet) in [(2, 9), (6, 10)] {
            r.push(
                rule("reconvergent-fanout")
                    .diagnostic(g(stem), Message::Reconverges { meet: g(meet) })
                    .with_related(vec![g(meet)]),
            );
        }
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
