//! Shared analysis state handed to every rule.

use std::cell::OnceCell;

use dft_analyze::constants::Constants;
use dft_analyze::scoap::{self, ScoapResult};
use dft_analyze::{solve, Dominators, GraphView, XProp, XWitness};
use dft_implic::ImplicationEngine;
use dft_netlist::cones::{reconvergent_fanouts, Reconvergence};
use dft_netlist::{GateId, Levelization, LevelizeError, Netlist, Topology};
use dft_sim::Logic;

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
/// *lazily*, on the first rule that asks. [`LintContext::new`] borrows
/// the netlist's memoized [`Topology`] — the levelization (whose
/// per-gate levels the analyses read in place), the reader lists and the
/// output mask — so a netlist that was already levelized costs the run
/// no structure pass at all. SCOAP, constant propagation,
/// X-propagation, the observability dominators, the reconvergence walk
/// and the implication engine each read that structure, materialize
/// once on first access and are shared by every later rule. A run whose rule
/// set never touches the implication engine (quadratic in gate count:
/// one learning propagation per literal) or the reconvergence walk (one
/// DFS per fanout stem) never pays for it — which is what keeps linting
/// 10⁵–10⁶-gate netlists with the structural/SCOAP rule subset linear.
/// On a cyclic netlist only the reader lists and output mask are
/// available — rules other than the feedback check bail out gracefully.
pub struct LintContext<'n> {
    netlist: &'n Netlist,
    config: LintConfig,
    topology: &'n Topology,
    scoap: OnceCell<Option<ScoapResult>>,
    constants: OnceCell<Option<Vec<Logic>>>,
    xprop: OnceCell<Option<Vec<XWitness>>>,
    dominators: OnceCell<Option<Dominators>>,
    reconvergence: OnceCell<Vec<Reconvergence>>,
    implications: OnceCell<Option<ImplicationEngine<'n>>>,
}

impl<'n> LintContext<'n> {
    /// A context over `netlist`'s [`Netlist::topology`] (built here if
    /// no earlier caller asked for it); each analysis waits for the
    /// first rule that reads it.
    #[must_use]
    pub fn new(netlist: &'n Netlist, config: LintConfig) -> Self {
        LintContext {
            netlist,
            config,
            topology: netlist.topology(),
            scoap: OnceCell::new(),
            constants: OnceCell::new(),
            xprop: OnceCell::new(),
            dominators: OnceCell::new(),
            reconvergence: OnceCell::new(),
            implications: OnceCell::new(),
        }
    }

    /// The structural view every framework analysis reads, with the
    /// levelization's sweep order (`None` on cyclic netlists).
    fn view(&self) -> Option<(GraphView<'n>, &'n [GateId])> {
        GraphView::of(self.netlist).ok()
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
    ///
    /// # Errors
    ///
    /// Returns [`LevelizeError`] on a combinational cycle.
    pub fn levelization(&self) -> Result<&'n Levelization, LevelizeError> {
        self.topology.levelization()
    }

    /// The netlist's memoized structure: levelization, `(reader, pin)`
    /// lists and output mask.
    #[must_use]
    pub fn topology(&self) -> &'n Topology {
        self.topology
    }

    /// SCOAP measures (`None` on cyclic netlists). Computed on first
    /// access, then shared.
    #[must_use]
    pub fn scoap(&self) -> Option<&ScoapResult> {
        self.scoap
            .get_or_init(|| {
                let (view, order) = self.view()?;
                Some(scoap::compute_with(&view, order))
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
                let (view, order) = self.view()?;
                Some(solve(&Constants, &view, order))
            })
            .as_deref()
    }

    /// Per-net X-propagation witnesses: the uninitializable storage
    /// element whose power-up X can reach the net, if any (`None` on
    /// cyclic netlists). Computed on first access, with the SCOAP and
    /// constant facts it reads, then shared.
    #[must_use]
    pub fn xprop(&self) -> Option<&[XWitness]> {
        self.xprop
            .get_or_init(|| {
                let xp = XProp {
                    constants: self.constants()?,
                    cc: &self.scoap()?.cc,
                };
                let (view, order) = self.view()?;
                Some(solve(&xp, &view, order))
            })
            .as_deref()
    }

    /// Structural observability dominators (`None` on cyclic netlists):
    /// which single net funnels every observation path of a region.
    /// Computed on first access, then shared.
    #[must_use]
    pub fn dominators(&self) -> Option<&Dominators> {
        self.dominators
            .get_or_init(|| Some(Dominators::compute(&self.view()?.0)))
            .as_ref()
    }

    /// Every reconvergent fanout stem with its shallowest meet gate
    /// (empty on cyclic netlists). Computed on first access, then shared.
    #[must_use]
    pub fn reconvergence(&self) -> &[Reconvergence] {
        self.reconvergence
            .get_or_init(|| reconvergent_fanouts(self.netlist, self.topology))
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
                self.levelization()
                    .is_ok()
                    .then(|| ImplicationEngine::new(self.netlist))
            })
            .as_ref()
    }
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
        assert_eq!(ctx.reconvergence(), reconvergent_fanouts(&n, n.topology()));
        assert!(!ctx.reconvergence().is_empty());
        assert!(std::ptr::eq(ctx.topology(), &**n.topology()));
        assert_eq!(ctx.config().max_depth, 50);
    }

    #[test]
    fn cyclic_designs_only_get_the_reader_lists() {
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
        assert_eq!(ctx.topology().readers().len(), 3);
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
