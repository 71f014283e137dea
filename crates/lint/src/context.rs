//! Shared analysis state handed to every rule.

use std::cell::OnceCell;

use dft_analyze::{Dominators, GraphView, XProp, XWitness};
use dft_implic::ImplicationEngine;
use dft_netlist::cones::{reconvergent_fanouts, Reconvergence};
use dft_netlist::{GateId, Levelization, LevelizeError, Netlist};
use dft_sim::Logic;
use dft_testability::TestabilityReport;

/// Thresholds the built-in rules check against.
///
/// The defaults are deliberately permissive — they flag outliers, not
/// ordinary structure. Every library benchmark circuit lints clean under
/// them (a property test enforces this).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LintConfig {
    /// Maximum combinational logic depth (`deep-logic`). Default 50 —
    /// the same generous settle bound `dft-scan`'s rule checker uses.
    pub max_depth: u32,
    /// Maximum input pins one net may drive (`excessive-fanout`).
    /// Default 24 — above the carry-lookahead generate/propagate nets
    /// (fanout 21), the heaviest load in the benchmark library.
    pub max_fanout: usize,
    /// Highest acceptable finite SCOAP controllability cost
    /// (`hard-to-control`). Default 250.
    pub controllability_limit: u32,
    /// Highest acceptable finite SCOAP observability cost
    /// (`hard-to-observe`). Default 250.
    pub observability_limit: u32,
    /// Observability cost above which a net is a candidate root for
    /// `deep-unobservable-cone`. Default 350 — stricter than
    /// `observability_limit` so the cone rule only fires on designs
    /// with genuinely buried regions, not everything `hard-to-observe`
    /// already flags.
    pub deep_cone_observability_limit: u32,
    /// Minimum number of over-limit gates in a root's fan-in cone for
    /// `deep-unobservable-cone` to fire. Default 4 — a single buried
    /// net is a point problem, a cone of them wants a test point.
    pub deep_cone_min_gates: usize,
    /// Minimum number of gates a net must observability-dominate for
    /// `observability-dominator-bottleneck` to fire. Default 16 — a
    /// funnel worth an observe point guards a real region, not a pair
    /// of gates.
    pub dominator_min_gates: usize,
}

impl Default for LintConfig {
    fn default() -> Self {
        LintConfig {
            max_depth: 50,
            max_fanout: 24,
            controllability_limit: 250,
            observability_limit: 250,
            deep_cone_observability_limit: 350,
            deep_cone_min_gates: 4,
            dominator_min_gates: 16,
        }
    }
}

/// Shared analyses handed to every rule in one run.
///
/// Rules read, never compute — but the expensive analyses are computed
/// *lazily*, on the first rule that asks. Levelization and the fanout
/// map are cheap and eager; SCOAP, constant propagation, the
/// X-propagation/dominator framework passes, the reconvergence walk and
/// the implication engine each materialize once on first access and are
/// shared by every later rule. A run whose rule set never touches the
/// implication engine (quadratic in gate count: one learning propagation
/// per literal) or the reconvergence walk (one DFS per fanout stem)
/// never pays for it — which is what keeps linting 10⁵–10⁶-gate
/// netlists with the structural/SCOAP rule subset linear. On a cyclic
/// netlist only the fanout map is available — rules other than the
/// feedback check bail out gracefully.
pub struct LintContext<'n> {
    netlist: &'n Netlist,
    config: LintConfig,
    levelization: Result<Levelization, LevelizeError>,
    fanout: Vec<Vec<(GateId, u8)>>,
    scoap: OnceCell<Option<TestabilityReport>>,
    constants: OnceCell<Option<Vec<Logic>>>,
    framework: OnceCell<Option<(Vec<XWitness>, Dominators)>>,
    reconvergence: OnceCell<Vec<Reconvergence>>,
    implications: OnceCell<Option<ImplicationEngine<'n>>>,
}

impl<'n> LintContext<'n> {
    /// Runs the shared analyses over `netlist`.
    #[must_use]
    pub fn new(netlist: &'n Netlist, config: LintConfig) -> Self {
        LintContext {
            netlist,
            config,
            levelization: netlist.levelize(),
            fanout: netlist.fanout_map(),
            scoap: OnceCell::new(),
            constants: OnceCell::new(),
            framework: OnceCell::new(),
            reconvergence: OnceCell::new(),
            implications: OnceCell::new(),
        }
    }

    /// The framework analyses share one graph view; they need the
    /// finished SCOAP and constant facts as inputs, so asking for
    /// either X-propagation or dominators forces both prerequisites.
    fn framework(&self) -> Option<&(Vec<XWitness>, Dominators)> {
        self.framework
            .get_or_init(|| {
                let lv = self.levelization.as_ref().ok()?;
                let report = self.scoap()?;
                let consts = self.constants()?;
                let n = self.netlist.gate_count();
                let level: Vec<u32> = (0..n).map(|i| lv.level(GateId::from_index(i))).collect();
                let is_output = dft_analyze::output_mask(self.netlist);
                let view = GraphView {
                    netlist: self.netlist,
                    level: &level,
                    fanout: &self.fanout,
                    is_output: &is_output,
                };
                let cc: Vec<(u32, u32)> = (0..n)
                    .map(|i| {
                        let m = report.measure(GateId::from_index(i));
                        (m.cc0, m.cc1)
                    })
                    .collect();
                let xp = XProp {
                    constants: consts,
                    cc: &cc,
                };
                let taint = dft_analyze::solve(&xp, &view, lv.order());
                Some((taint, Dominators::compute(&view)))
            })
            .as_ref()
    }

    /// The netlist under analysis.
    #[must_use]
    pub fn netlist(&self) -> &'n Netlist {
        self.netlist
    }

    /// The thresholds for this run.
    #[must_use]
    pub fn config(&self) -> &LintConfig {
        &self.config
    }

    /// Levelization of the combinational frame, or the cycle error.
    pub fn levelization(&self) -> Result<&Levelization, LevelizeError> {
        self.levelization.as_ref().map_err(|&e| e)
    }

    /// `(reader, pin)` pairs per driving gate.
    #[must_use]
    pub fn fanout(&self) -> &[Vec<(GateId, u8)>] {
        &self.fanout
    }

    /// SCOAP measures (`None` on cyclic netlists). Computed on first
    /// access, then shared.
    #[must_use]
    pub fn scoap(&self) -> Option<&TestabilityReport> {
        self.scoap
            .get_or_init(|| {
                self.levelization.is_ok().then(|| {
                    dft_testability::analyze(self.netlist).expect("levelization succeeded")
                })
            })
            .as_ref()
    }

    /// Per-net constant-propagation values with every primary input and
    /// storage output at X (`None` on cyclic netlists). A known value
    /// here is a value the net holds under *every* input assignment.
    /// Computed on first access, then shared.
    #[must_use]
    pub fn constants(&self) -> Option<&[Logic]> {
        self.constants
            .get_or_init(|| {
                self.levelization
                    .as_ref()
                    .ok()
                    .map(|lv| propagate_constants(self.netlist, lv))
            })
            .as_deref()
    }

    /// Per-net X-propagation witnesses: the uninitializable storage
    /// element whose power-up X can reach the net, if any (`None` on
    /// cyclic netlists). Computed on first access, then shared.
    #[must_use]
    pub fn xprop(&self) -> Option<&[XWitness]> {
        self.framework().map(|(taint, _)| taint.as_slice())
    }

    /// Structural observability dominators (`None` on cyclic netlists):
    /// which single net funnels every observation path of a region.
    /// Computed on first access, then shared.
    #[must_use]
    pub fn dominators(&self) -> Option<&Dominators> {
        self.framework().map(|(_, dom)| dom)
    }

    /// Every reconvergent fanout stem with its shallowest meet gate
    /// (empty on cyclic netlists). Computed on first access, then shared.
    #[must_use]
    pub fn reconvergence(&self) -> &[Reconvergence] {
        self.reconvergence
            .get_or_init(|| reconvergent_fanouts(self.netlist))
    }

    /// The static implication engine with SOCRATES-style learned
    /// implications (`None` on cyclic netlists): implied constants that
    /// plain constant propagation misses, unsettable literals, and the
    /// statically-untestable-fault oracle.
    ///
    /// This is by far the most expensive shared analysis — one learning
    /// propagation per literal, quadratic in gate count — so it is only
    /// built when a rule that reads implications is actually in the
    /// run's rule set.
    #[must_use]
    pub fn implications(&self) -> Option<&ImplicationEngine<'n>> {
        self.implications
            .get_or_init(|| {
                self.levelization
                    .is_ok()
                    .then(|| ImplicationEngine::new(self.netlist))
            })
            .as_ref()
    }
}

/// Three-valued forward evaluation with all inputs and state unknown:
/// whatever comes out known is structurally constant. Thin wrapper over
/// the `dft-analyze` framework pass (bit-identical to the historical
/// in-crate loop; the framework's equivalence tests pin this down).
fn propagate_constants(netlist: &Netlist, lv: &Levelization) -> Vec<Logic> {
    let level: Vec<u32> = (0..netlist.gate_count())
        .map(|i| lv.level(GateId::from_index(i)))
        .collect();
    dft_analyze::constants::compute(netlist, &level)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dft_netlist::circuits::c17;
    use dft_netlist::{GateKind, Netlist as NL};

    #[test]
    fn context_serves_every_analysis_on_acyclic_designs() {
        let n = c17();
        let ctx = LintContext::new(&n, LintConfig::default());
        assert!(ctx.levelization().is_ok());
        assert!(ctx.scoap().is_some());
        assert!(ctx.constants().is_some());
        assert!(ctx.xprop().is_some());
        assert!(ctx.dominators().is_some());
        assert_eq!(ctx.reconvergence(), reconvergent_fanouts(&n));
        assert!(!ctx.reconvergence().is_empty());
        assert_eq!(ctx.fanout().len(), n.gate_count());
        assert_eq!(ctx.config().max_depth, 50);
    }

    #[test]
    fn cyclic_designs_only_get_the_fanout_map() {
        let mut n = NL::new("t");
        let a = n.add_input("a");
        let g1 = n.add_gate(GateKind::And, &[a, a]).unwrap();
        let g2 = n.add_gate(GateKind::Or, &[g1, a]).unwrap();
        n.reconnect_input(g1, 1, g2).unwrap();
        let ctx = LintContext::new(&n, LintConfig::default());
        assert!(ctx.levelization().is_err());
        assert!(ctx.scoap().is_none());
        assert!(ctx.constants().is_none());
        assert!(ctx.xprop().is_none());
        assert!(ctx.dominators().is_none());
        assert!(ctx.reconvergence().is_empty());
        assert_eq!(ctx.fanout().len(), 3);
    }

    #[test]
    fn constant_propagation_finds_structural_constants() {
        let mut n = NL::new("t");
        let a = n.add_input("a");
        let zero = n.add_const(false);
        let dead = n.add_gate(GateKind::And, &[a, zero]).unwrap();
        let live = n.add_gate(GateKind::Or, &[a, zero]).unwrap();
        let inv = n.add_gate(GateKind::Not, &[dead]).unwrap();
        n.mark_output(live, "y").unwrap();
        n.mark_output(inv, "z").unwrap();
        let ctx = LintContext::new(&n, LintConfig::default());
        let c = ctx.constants().unwrap();
        assert_eq!(c[a.index()], Logic::X);
        assert_eq!(c[zero.index()], Logic::Zero);
        assert_eq!(c[dead.index()], Logic::Zero, "AND with constant 0");
        assert_eq!(c[live.index()], Logic::X, "OR with noncontrolling 0");
        assert_eq!(c[inv.index()], Logic::One, "NOT of a constant");
    }
}
