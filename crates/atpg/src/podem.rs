//! PODEM: path-oriented decision making over primary-input assignments.

use std::sync::Arc;

use dft_fault::Fault;
use dft_implic::ImplicationEngine;
use dft_netlist::{GateId, GateKind, Levelization, LevelizeError, Netlist, Pin, Topology};
use dft_obs::{Collector, Obs};
use dft_sim::Logic;
use dft_testability::{analyze, ScoapResult};

use crate::cdcl::{Lit, Solver, Verdict};
use crate::DVal;

/// A (possibly partial) test pattern: one value per primary input, `X`
/// meaning "don't care" (free for compaction or random fill).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TestCube {
    /// Per-primary-input assignment, in netlist input order.
    pub assignment: Vec<Logic>,
}

impl TestCube {
    /// Fills don't-cares with `fill` and returns a concrete pattern row.
    #[must_use]
    pub fn filled(&self, fill: bool) -> Vec<bool> {
        self.assignment
            .iter()
            .map(|v| v.to_bool().unwrap_or(fill))
            .collect()
    }

    /// Number of assigned (care) bits.
    #[must_use]
    pub fn care_count(&self) -> usize {
        self.assignment.iter().filter(|v| v.is_known()).count()
    }

    /// Whether two cubes can merge (no opposing care bits).
    #[must_use]
    pub fn compatible(&self, other: &TestCube) -> bool {
        self.assignment
            .iter()
            .zip(&other.assignment)
            .all(|(&a, &b)| match (a.to_bool(), b.to_bool()) {
                (Some(x), Some(y)) => x == y,
                _ => true,
            })
    }

    /// The merge of two compatible cubes.
    ///
    /// # Panics
    ///
    /// Panics if the cubes are not [`TestCube::compatible`].
    #[must_use]
    pub fn merged(&self, other: &TestCube) -> TestCube {
        assert!(self.compatible(other), "merging incompatible cubes");
        TestCube {
            assignment: self
                .assignment
                .iter()
                .zip(&other.assignment)
                .map(|(&a, &b)| if a.is_known() { a } else { b })
                .collect(),
        }
    }
}

/// The outcome of one deterministic test-generation attempt.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GenOutcome {
    /// A test cube was found (verified by construction: the fault effect
    /// reaches a primary output under this cube).
    Test(TestCube),
    /// The fault is provably untestable (redundant) — the search space
    /// was exhausted.
    Untestable,
    /// The backtrack limit was hit before a verdict.
    Aborted,
}

impl GenOutcome {
    /// The cube, if a test was found.
    #[must_use]
    pub fn cube(&self) -> Option<&TestCube> {
        match self {
            GenOutcome::Test(c) => Some(c),
            _ => None,
        }
    }
}

/// Tuning knobs for [`podem`]/[`Podem`].
///
/// `#[non_exhaustive]`: construct via [`Default`] and the `with_*`
/// builders so new knobs can be added without breaking downstream
/// crates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub struct PodemConfig {
    /// Abort the search after this many backtracks.
    pub backtrack_limit: u32,
    /// Consult a static implication engine (`dft-implic`): faults it
    /// proves untestable return `Untestable` with zero search, and its
    /// implication store prunes assignments that contradict a necessary
    /// condition of detection (see `SolveStats::implication_conflicts`).
    pub use_implications: bool,
}

impl Default for PodemConfig {
    fn default() -> Self {
        PodemConfig {
            backtrack_limit: 10_000,
            use_implications: true,
        }
    }
}

impl PodemConfig {
    /// Defaults (same as [`Default`], spelled for builder chains).
    #[must_use]
    pub fn new() -> Self {
        PodemConfig::default()
    }

    /// Sets [`PodemConfig::backtrack_limit`].
    #[must_use]
    pub fn with_backtrack_limit(mut self, backtrack_limit: u32) -> Self {
        self.backtrack_limit = backtrack_limit;
        self
    }

    /// Sets [`PodemConfig::use_implications`].
    #[must_use]
    pub fn with_use_implications(mut self, use_implications: bool) -> Self {
        self.use_implications = use_implications;
        self
    }
}

/// The prover that settled a verdict.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Prover {
    /// The PODEM search: every test, every abort, and the untestable
    /// verdicts it reached by exhausting its decision tree.
    #[default]
    Search,
    /// The static implication engine, before any search.
    Static,
    /// The CDCL prover on the fault's good/faulty miter
    /// ([`Podem::settle`] only).
    Cdcl,
}

/// Search-effort counters for one [`Podem::solve`] or [`Podem::settle`]
/// call — the raw data behind the paper's Eq. (1) runtime-scaling
/// experiment.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Decisions reverted.
    pub backtracks: u32,
    /// Forward implication steps performed (one per search step).
    pub forward_evals: u64,
    /// Dead ends called by the static implication store before the
    /// search had to discover them (each one prunes a whole subtree).
    pub implication_conflicts: u32,
    /// Gates evaluated across all forward implication steps: every
    /// non-input gate on the first step, then only the gates an event
    /// reached. The work unit the event-driven forward cuts, and the
    /// unit of [`Podem::settle`]'s search budget.
    pub gate_evals: u64,
    /// CDCL proofs attempted: 0, or 1 once [`Podem::settle`]'s search
    /// spent its budget or hit its backtrack limit.
    pub cdcl_calls: u32,
    /// Conflicts the CDCL prover met.
    pub cdcl_conflicts: u64,
    /// The prover that settled the verdict.
    pub prover: Prover,
}

/// [`Podem::settle`] searches this many gate evaluations per logic gate
/// before it asks the CDCL prover. On rand_15x140 (seed 6) the testable
/// faults need at most 34 per gate and the redundant tail 300–1,100.
/// Of 8, 16, 24, 32, 48 and 64 per gate, the flow on rand_12x80,
/// rand_14x120, rand_15x140 and rand_16x300 searched least at 8 and 16;
/// 16 hands the prover fewer testable faults (10 against 15 on
/// rand_16x300), which it cannot refute and the search then finishes.
const GATE_EVALS_PER_GATE: u64 = 16;

/// Conflicts the CDCL prover may spend on one fault before it gives the
/// fault back to the search.
const CDCL_CONFLICT_LIMIT: u64 = 10_000;

/// `pi_pos` entry of a gate that is not a primary input.
const NOT_PI: u32 = u32::MAX;

/// Per-search fault-site marks: the gate's output, or one of its input
/// pins, carries a fault site.
const OUTPUT_SITE: u8 = 1;
const PIN_SITE: u8 = 2;

/// The netlist lowered into flat, gate-indexed arrays: everything the
/// search reads, with no per-access gate views, name building or
/// hashing. Built once per solver.
///
/// `dft_sim::Kernel`'s op CSR is indexed by op and omits sources; the
/// search reads fan-in by gate on every pin access, so it keeps a
/// gate-indexed CSR of its own. Order, levels and the output mask are
/// read from the netlist's memoized [`Topology`].
#[derive(Debug)]
struct Compiled {
    topology: Arc<Topology>,
    kinds: Vec<GateKind>,
    /// Gate `g` reads `fanin[fanin_start[g]..fanin_start[g + 1]]`.
    fanin_start: Vec<u32>,
    fanin: Vec<u32>,
    /// Gate `g`'s combinational readers are
    /// `fanout[fanout_start[g]..fanout_start[g + 1]]`, in the
    /// topology's reader order. Storage readers are left out: a `Dff`
    /// output is a constant `X` in the test view, so no event or fault
    /// effect ever enters one.
    fanout_start: Vec<u32>,
    fanout: Vec<u32>,
    /// Level `l` owns the event-bucket slots
    /// `level_start[l]..level_start[l + 1]`, one per gate at that level,
    /// so a bucket can never overflow.
    level_start: Vec<u32>,
    /// Primary-input gates in netlist input order, and its inverse.
    pi_gate: Vec<u32>,
    pi_pos: Vec<u32>,
    /// Primary-output drivers, in output order.
    po_gate: Vec<u32>,
    /// [`Podem::settle`]'s search budget in gate evaluations.
    budget: u64,
}

impl Compiled {
    fn new(netlist: &Netlist) -> Result<Self, LevelizeError> {
        let topology = Arc::clone(netlist.topology());
        let lv = topology.levelization()?;
        let n = netlist.gate_count();
        let mut kinds = Vec::with_capacity(n);
        let mut fanin_start = Vec::with_capacity(n + 1);
        let mut fanin = Vec::new();
        fanin_start.push(0);
        for (_, gate) in netlist.iter() {
            kinds.push(gate.kind());
            fanin.extend(gate.inputs().iter().map(|s| s.index() as u32));
            fanin_start.push(fanin.len() as u32);
        }

        let mut fanout_start = Vec::with_capacity(n + 1);
        let mut fanout = Vec::new();
        fanout_start.push(0);
        let readers = topology.readers();
        for g in 0..n {
            fanout.extend(
                readers[g]
                    .iter()
                    .filter(|(r, _)| !kinds[r.index()].is_storage())
                    .map(|(r, _)| r.index() as u32),
            );
            fanout_start.push(fanout.len() as u32);
        }

        let mut level_start = vec![0u32; lv.depth() as usize + 2];
        for &l in lv.levels() {
            level_start[l as usize + 1] += 1;
        }
        for l in 1..level_start.len() {
            level_start[l] += level_start[l - 1];
        }

        let pi_gate: Vec<u32> = netlist
            .primary_inputs()
            .iter()
            .map(|g| g.index() as u32)
            .collect();
        let mut pi_pos = vec![NOT_PI; n];
        for (i, &g) in pi_gate.iter().enumerate() {
            pi_pos[g as usize] = i as u32;
        }
        let po_gate: Vec<u32> = netlist
            .primary_outputs()
            .iter()
            .map(|(g, _)| g.index() as u32)
            .collect();
        let logic = kinds.iter().filter(|k| !k.is_source()).count() as u64;
        Ok(Compiled {
            topology,
            kinds,
            fanin_start,
            fanin,
            fanout_start,
            fanout,
            level_start,
            pi_gate,
            pi_pos,
            po_gate,
            budget: GATE_EVALS_PER_GATE * logic,
        })
    }

    fn gate_count(&self) -> usize {
        self.kinds.len()
    }

    fn lv(&self) -> &Levelization {
        self.topology
            .levelization()
            .expect("the build checked the frame is acyclic")
    }

    /// Levelized evaluation order (the first forward pass of a search).
    fn order(&self) -> impl Iterator<Item = u32> + '_ {
        self.lv().order().iter().map(|g| g.index() as u32)
    }

    fn fanin(&self, g: u32) -> &[u32] {
        let g = g as usize;
        &self.fanin[self.fanin_start[g] as usize..self.fanin_start[g + 1] as usize]
    }

    fn readers(&self, g: u32) -> &[u32] {
        let g = g as usize;
        &self.fanout[self.fanout_start[g] as usize..self.fanout_start[g + 1] as usize]
    }
}

/// One search's working state, allocated once per [`Podem::solve`] call
/// so that no search step allocates.
struct Scratch {
    /// The decision assignment, one value per primary input.
    assign: Vec<Logic>,
    /// Good/faulty value of every net under `assign`.
    vals: Vec<DVal>,
    /// Decision stack: (primary-input position, both values tried).
    decisions: Vec<(u32, bool)>,
    /// `OUTPUT_SITE`/`PIN_SITE` marks per gate.
    site: Vec<u8>,
    /// The sites' combinational fanout cone, ascending. Outside it the
    /// good and faulty machines agree, so the D-frontier lives here.
    cone: Vec<u32>,
    /// Whether the first (full) forward pass has run.
    primed: bool,
    /// Primary inputs reassigned since the last forward pass.
    dirty: Vec<u32>,
    /// Event buckets, partitioned by level (see `Compiled::level_start`).
    bucket: Vec<u32>,
    fill: Vec<u32>,
    queued: Vec<bool>,
    /// Epoch-stamped visit marks and the stack of the graph walks.
    seen: Vec<u32>,
    epoch: u32,
    stack: Vec<u32>,
}

impl Scratch {
    fn new(net: &Compiled, sites: &[Fault]) -> Self {
        let n = net.gate_count();
        let mut s = Scratch {
            assign: vec![Logic::X; net.pi_gate.len()],
            vals: vec![DVal::X; n],
            decisions: Vec::with_capacity(net.pi_gate.len()),
            site: vec![0; n],
            cone: Vec::new(),
            primed: false,
            dirty: Vec::with_capacity(net.pi_gate.len()),
            bucket: vec![0; n],
            fill: vec![0; net.level_start.len() - 1],
            queued: vec![false; n],
            seen: vec![0; n],
            epoch: 0,
            stack: Vec::with_capacity(n),
        };
        let epoch = s.next_epoch();
        for f in sites {
            let g = f.site.gate.index();
            s.site[g] |= match f.site.pin {
                Pin::Output => OUTPUT_SITE,
                Pin::Input(_) => PIN_SITE,
            };
            if s.seen[g] != epoch {
                s.seen[g] = epoch;
                s.stack.push(g as u32);
            }
        }
        while let Some(g) = s.stack.pop() {
            s.cone.push(g);
            for &r in net.readers(g) {
                if s.seen[r as usize] != epoch {
                    s.seen[r as usize] = epoch;
                    s.stack.push(r);
                }
            }
        }
        s.cone.sort_unstable();
        s
    }

    /// A fresh visit-mark generation for `seen`.
    fn next_epoch(&mut self) -> u32 {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.seen.fill(0);
            self.epoch = 1;
        }
        self.epoch
    }

    /// Reassigns primary input `pi`; the next forward pass picks it up.
    fn set(&mut self, pi: u32, v: Logic) {
        self.assign[pi as usize] = v;
        self.dirty.push(pi);
    }
}

/// One search in flight: its scratch, its counters, and the necessity
/// literals it prunes with — everything [`Podem::advance`] needs to
/// pause a search and resume it later.
struct Search<'f> {
    sites: &'f [Fault],
    necessity: Vec<(usize, bool)>,
    s: Scratch,
    stats: SolveStats,
}

/// The stats of a fault the implication engine proves untestable with
/// no search.
const STATIC_PROOF: SolveStats = SolveStats {
    backtracks: 0,
    forward_evals: 0,
    implication_conflicts: 0,
    gate_evals: 0,
    cdcl_calls: 0,
    cdcl_conflicts: 0,
    prover: Prover::Static,
};

/// Tseitin-encodes one gate of `kind` over its input literals and
/// returns its output literal. Buffers and inverters alias their input;
/// `Input` and `Dff` outputs are fresh free variables; `one` is the
/// constant-true literal.
fn encode_gate(sat: &mut Solver, one: Lit, kind: GateKind, ins: &[Lit]) -> Lit {
    match kind {
        GateKind::Input | GateKind::Dff => sat.new_lit(),
        GateKind::Const0 => !one,
        GateKind::Const1 => one,
        GateKind::Buf => ins[0],
        GateKind::Not => !ins[0],
        GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor => {
            // OR is the complement of AND over complemented inputs.
            let or = matches!(kind, GateKind::Or | GateKind::Nor);
            let y = match ins {
                [] => one,
                [x] => x.is(!or),
                _ => {
                    let y = sat.new_lit();
                    for &x in ins {
                        sat.add_clause(&[!y, x.is(!or)]);
                    }
                    let mut all: Vec<Lit> = ins.iter().map(|&x| x.is(or)).collect();
                    all.push(y);
                    sat.add_clause(&all);
                    y
                }
            };
            y.is(kind.inverts() == or)
        }
        GateKind::Xor | GateKind::Xnor => {
            let Some((&first, rest)) = ins.split_first() else {
                return one.is(kind == GateKind::Xnor);
            };
            let mut acc = first;
            for &x in rest {
                let y = sat.new_lit();
                sat.add_clause(&[!y, acc, x]);
                sat.add_clause(&[!y, !acc, !x]);
                sat.add_clause(&[y, !acc, x]);
                sat.add_clause(&[y, acc, !x]);
                acc = y;
            }
            acc.is(kind == GateKind::Xor)
        }
    }
}

/// A reusable PODEM solver for one netlist (levelization and testability
/// guidance are computed once).
///
/// The netlist is compiled into flat arrays at build time, and each
/// search allocates its scratch once. Forward implication is
/// event-driven: after the first full pass of a search, a step
/// re-evaluates only the fanout cone of the primary inputs whose value
/// changed, level by level. The search itself — decision order, cubes
/// and [`SolveStats`] other than `gate_evals` — is the same as a full
/// re-simulation per step would give.
///
/// The solver borrows its netlist only through its implication engine;
/// [`Podem::from_owned`] builds one that owns everything it reads.
#[derive(Debug)]
pub struct Podem<'n> {
    net: Compiled,
    report: ScoapResult,
    config: PodemConfig,
    implic: Option<ImplicationEngine<'n>>,
}

impl<'n> Podem<'n> {
    /// Compiles a solver.
    ///
    /// # Errors
    ///
    /// Returns [`LevelizeError`] on combinational cycles.
    pub fn new(netlist: &'n Netlist, config: PodemConfig) -> Result<Self, LevelizeError> {
        Podem::new_observed(netlist, config, None)
    }

    /// [`Podem::new`] feeding telemetry to an optional collector: when
    /// implications are enabled, the embedded [`ImplicationEngine`]
    /// build reports its `implic.learn` span through `obs`.
    ///
    /// # Errors
    ///
    /// Returns [`LevelizeError`] on combinational cycles.
    pub fn new_observed(
        netlist: &'n Netlist,
        config: PodemConfig,
        obs: Option<&mut dyn Collector>,
    ) -> Result<Self, LevelizeError> {
        let mut obs = Obs::new(obs);
        let net = Compiled::new(netlist)?;
        let report = analyze(netlist)?;
        let implic = config
            .use_implications
            .then(|| ImplicationEngine::new_observed(netlist, obs.as_option()));
        Ok(Podem {
            net,
            report,
            config,
            implic,
        })
    }

    /// The static implication engine the solver consults, if
    /// [`PodemConfig::use_implications`] is on — shareable with other
    /// consumers (e.g. `dft_fault::prefilter_with`) so learning runs once.
    #[must_use]
    pub fn implications(&self) -> Option<&ImplicationEngine<'n>> {
        self.implic.as_ref()
    }

    /// Necessary conditions of detection for a single-site fault, as
    /// `(net index, good value)` pairs: the excitation literal's static
    /// implication closure. Any partial assignment whose good-machine
    /// value contradicts one of them cannot be completed into a test.
    /// Returns `None` (empty) when the fault is multi-site or the
    /// engine is disabled, and `Err(())` when the engine statically
    /// proves the fault untestable outright.
    #[allow(clippy::result_unit_err)]
    fn necessity(&self, sites: &[Fault]) -> Result<Vec<(usize, bool)>, ()> {
        let (Some(engine), [f]) = (&self.implic, sites) else {
            return Ok(Vec::new());
        };
        if engine
            .fault_untestable(f.site.gate, f.site.pin, f.stuck)
            .is_some()
        {
            return Err(());
        }
        let activation = match f.site.pin {
            Pin::Output => f.site.gate,
            Pin::Input(p) => {
                GateId::from_index(self.net.fanin(f.site.gate.index() as u32)[p as usize] as usize)
            }
        };
        let q = engine.query(activation, !f.stuck);
        Ok(q.implied.iter().map(|l| (l.net.index(), l.value)).collect())
    }

    /// Attempts to generate a test for `fault`.
    #[must_use]
    pub fn solve(&self, fault: Fault) -> (GenOutcome, SolveStats) {
        self.solve_any_of(&[fault])
    }

    /// [`Podem::solve`] feeding telemetry to an optional collector.
    #[must_use]
    pub fn solve_with(
        &self,
        fault: Fault,
        obs: Option<&mut dyn Collector>,
    ) -> (GenOutcome, SolveStats) {
        self.solve_any_of_with(&[fault], obs)
    }

    /// Attempts to generate a test for a fault present at *several* sites
    /// simultaneously (one logical defect with multiple copies — the
    /// time-frame-expansion case, where the same physical fault appears
    /// in every unrolled frame). All sites are stuck in the faulty
    /// machine; a test excites at least one and drives the effect to an
    /// output.
    ///
    /// # Panics
    ///
    /// Panics if `sites` is empty.
    #[must_use]
    pub fn solve_any_of(&self, sites: &[Fault]) -> (GenOutcome, SolveStats) {
        self.solve_any_of_with(sites, None)
    }

    /// [`Podem::solve_any_of`] feeding telemetry to an optional
    /// collector.
    ///
    /// Opens an `atpg.podem` span per attempt and flushes the
    /// [`SolveStats`] counters (`backtracks`, `forward_evals`,
    /// `implication_conflicts`, `gate_evals`) plus one of
    /// `tests`/`untestable`/`aborted` for the outcome; the returned stats
    /// are unchanged, so the legacy view and the collector always agree.
    ///
    /// # Panics
    ///
    /// Panics if `sites` is empty.
    #[must_use]
    pub fn solve_any_of_with(
        &self,
        sites: &[Fault],
        obs: Option<&mut dyn Collector>,
    ) -> (GenOutcome, SolveStats) {
        let mut obs = Obs::new(obs);
        obs.enter("atpg.podem");
        let (outcome, stats) = self.search(sites, |_| {});
        obs.count("attempts", 1);
        obs.count("backtracks", u64::from(stats.backtracks));
        obs.count("forward_evals", stats.forward_evals);
        obs.count(
            "implication_conflicts",
            u64::from(stats.implication_conflicts),
        );
        obs.count("gate_evals", stats.gate_evals);
        obs.count(
            match outcome {
                GenOutcome::Test(_) => "tests",
                GenOutcome::Untestable => "untestable",
                GenOutcome::Aborted => "aborted",
            },
            1,
        );
        obs.exit();
        (outcome, stats)
    }

    /// Attempts to generate a test for `fault`, proving the hard
    /// redundant ones with a complete SAT prover instead of an
    /// exhaustive search. Three rungs:
    ///
    /// 1. the static implication engine, as in [`Podem::solve`];
    /// 2. the PODEM search, until its gate evaluations
    ///    ([`SolveStats::gate_evals`]) pass a budget proportional to the
    ///    netlist's logic gates, or its backtrack limit comes first;
    /// 3. one CDCL proof on the fault's good/faulty miter (Larrabee,
    ///    "Test pattern generation using Boolean satisfiability", IEEE
    ///    TCAD 1992), seeded with the fault's necessity literals and the
    ///    implication engine's learned edges, under a fixed conflict
    ///    limit.
    ///
    /// An unsatisfiable miter settles the fault as `Untestable`
    /// ([`Prover::Cdcl`]). Otherwise the paused search resumes from the
    /// state it stopped in, with its full backtrack limit, so a
    /// testable fault gets exactly the cube and search counters
    /// `solve` gives, and `Aborted` comes back only once the prover has
    /// failed too. The budget and the conflict limit count work, not
    /// time, so every verdict and counter replays bit-identically.
    #[must_use]
    pub fn settle(&self, fault: Fault) -> (GenOutcome, SolveStats) {
        let sites = [fault];
        let Some(mut run) = self.begin(&sites) else {
            return (GenOutcome::Untestable, STATIC_PROOF);
        };
        let first = self.advance(&mut run, self.net.budget, |_| {});
        if let Some(outcome @ (GenOutcome::Test(_) | GenOutcome::Untestable)) = first {
            return (outcome, run.stats);
        }
        let (mut sat, _) = self.miter(fault, &run.necessity);
        let verdict = sat.solve(CDCL_CONFLICT_LIMIT);
        run.stats.cdcl_calls = 1;
        run.stats.cdcl_conflicts = sat.conflicts();
        if verdict == Verdict::Unsat {
            run.stats.prover = Prover::Cdcl;
            return (GenOutcome::Untestable, run.stats);
        }
        let outcome = match first {
            Some(aborted) => aborted,
            None => self
                .advance(&mut run, u64::MAX, |_| {})
                .expect("an unbudgeted search reaches a verdict"),
        };
        (outcome, run.stats)
    }

    /// The search loop. `after_forward` sees the scratch after every
    /// forward implication step (the test suite's oracle hook).
    fn search(
        &self,
        sites: &[Fault],
        after_forward: impl FnMut(&Scratch),
    ) -> (GenOutcome, SolveStats) {
        let Some(mut run) = self.begin(sites) else {
            return (GenOutcome::Untestable, STATIC_PROOF);
        };
        let outcome = self
            .advance(&mut run, u64::MAX, after_forward)
            .expect("an unbudgeted search reaches a verdict");
        (outcome, run.stats)
    }

    /// A fresh search over `sites`, or `None` when the implication
    /// engine proves the fault untestable with no search at all.
    fn begin<'f>(&self, sites: &'f [Fault]) -> Option<Search<'f>> {
        assert!(!sites.is_empty(), "need at least one fault site");
        let necessity = self.necessity(sites).ok()?;
        Some(Search {
            sites,
            necessity,
            s: Scratch::new(&self.net, sites),
            stats: SolveStats::default(),
        })
    }

    /// Runs `run` to a verdict, or pauses it (returning `None`) at the
    /// top of a step once its gate evaluations exceed `budget`. A paused
    /// search resumes exactly where it stopped: the next call makes the
    /// same steps an unpaused one would have.
    fn advance(
        &self,
        run: &mut Search<'_>,
        budget: u64,
        mut after_forward: impl FnMut(&Scratch),
    ) -> Option<GenOutcome> {
        let Search {
            sites,
            necessity,
            s,
            stats,
        } = run;
        loop {
            if stats.gate_evals > budget {
                return None;
            }
            self.forward(s, sites, stats);
            stats.forward_evals += 1;
            after_forward(s);

            if self.detected(&s.vals) {
                return Some(GenOutcome::Test(TestCube {
                    assignment: s.assign.clone(),
                }));
            }

            // A good-machine value contradicting a static necessity of
            // detection dooms every completion of this assignment: call
            // the dead end now instead of searching into the subtree.
            let implication_conflict = necessity
                .iter()
                .any(|&(i, v)| s.vals[i].good.to_bool().is_some_and(|b| b != v));
            if implication_conflict {
                stats.implication_conflicts += 1;
            }

            let next = if implication_conflict {
                None
            } else {
                self.objective(s, sites)
                    .and_then(|(net, v)| self.backtrace(&s.vals, net, v))
            };

            match next {
                Some((pi, v)) => {
                    s.set(pi, Logic::from(v));
                    s.decisions.push((pi, false));
                }
                None => {
                    // Backtrack.
                    loop {
                        match s.decisions.pop() {
                            None => return Some(GenOutcome::Untestable),
                            Some((pi, true)) => s.set(pi, Logic::X),
                            Some((pi, false)) => {
                                stats.backtracks += 1;
                                if stats.backtracks >= self.config.backtrack_limit {
                                    return Some(GenOutcome::Aborted);
                                }
                                let flipped = match s.assign[pi as usize] {
                                    Logic::Zero => Logic::One,
                                    Logic::One => Logic::Zero,
                                    Logic::X => unreachable!("decision PIs are assigned"),
                                };
                                s.set(pi, flipped);
                                s.decisions.push((pi, true));
                                break;
                            }
                        }
                    }
                }
            }
        }
    }

    /// `fault`'s good/faulty miter as CNF, with each net's good-machine
    /// literal (`None` outside the encoded support).
    ///
    /// The faulty machine is encoded over the fault's cone (the site and
    /// its combinational fanout), the good machine over the cone's
    /// transitive fan-in, Tseitin per gate kind. `Dff` outputs are free
    /// variables, shared by both machines: a fault effect never passes
    /// storage in the test view. A difference variable per cone gate
    /// implies the machines disagree there; the site must differ, some
    /// cone output must differ (the PO-difference clause), and Larrabee's
    /// active-path clauses tie each difference to a differing reader
    /// (unless it is an output) and to a differing cone fan-in. The
    /// fault's necessity literals become unit clauses, the implication
    /// engine's learned edges binary clauses.
    ///
    /// Every clause holds under any search test with any `Dff` values,
    /// so an unsatisfiable miter proves the fault untestable.
    fn miter(&self, fault: Fault, necessity: &[(usize, bool)]) -> (Solver, Vec<Option<Lit>>) {
        let net = &self.net;
        let n = net.gate_count();
        let site = fault.site.gate.index() as u32;
        let faulty_pin = match fault.site.pin {
            Pin::Output => None,
            Pin::Input(p) => Some(usize::from(p)),
        };

        let mut in_cone = vec![false; n];
        let mut stack = vec![site];
        in_cone[site as usize] = true;
        while let Some(g) = stack.pop() {
            for &r in net.readers(g) {
                if !in_cone[r as usize] {
                    in_cone[r as usize] = true;
                    stack.push(r);
                }
            }
        }
        let cone: Vec<u32> = (0..n as u32).filter(|&g| in_cone[g as usize]).collect();
        let mut in_support = in_cone.clone();
        stack.extend_from_slice(&cone);
        while let Some(g) = stack.pop() {
            if net.kinds[g as usize].is_source() {
                continue;
            }
            for &d in net.fanin(g) {
                if !in_support[d as usize] {
                    in_support[d as usize] = true;
                    stack.push(d);
                }
            }
        }

        let mut sat = Solver::new();
        let one = sat.new_lit();
        sat.add_clause(&[one]);
        let mut good: Vec<Option<Lit>> = vec![None; n];
        let mut faulty: Vec<Option<Lit>> = vec![None; n];
        let site_output = |g: u32| (g == site && faulty_pin.is_none()).then(|| one.is(fault.stuck));
        // Sources first: the levelized order places a `Dff` after its data
        // driver, which may come after the `Dff`'s own readers.
        let support = || net.order().filter(|&g| in_support[g as usize]);
        for g in support().filter(|&g| net.kinds[g as usize].is_source()) {
            let good_lit = encode_gate(&mut sat, one, net.kinds[g as usize], &[]);
            good[g as usize] = Some(good_lit);
            if in_cone[g as usize] {
                faulty[g as usize] = Some(site_output(g).unwrap_or(good_lit));
            }
        }
        let mut ins: Vec<Lit> = Vec::new();
        for g in support().filter(|&g| !net.kinds[g as usize].is_source()) {
            let (gi, kind) = (g as usize, net.kinds[g as usize]);
            ins.clear();
            ins.extend(
                net.fanin(g)
                    .iter()
                    .map(|&d| good[d as usize].expect("fan-in first")),
            );
            good[gi] = Some(encode_gate(&mut sat, one, kind, &ins));
            if !in_cone[gi] {
                continue;
            }
            faulty[gi] = Some(match site_output(g) {
                Some(stuck) => stuck,
                None => {
                    ins.clear();
                    for (p, &d) in net.fanin(g).iter().enumerate() {
                        ins.push(if g == site && faulty_pin == Some(p) {
                            one.is(fault.stuck)
                        } else {
                            faulty[d as usize]
                                .or(good[d as usize])
                                .expect("fan-in first")
                        });
                    }
                    encode_gate(&mut sat, one, kind, &ins)
                }
            });
        }

        let mut diff: Vec<Option<Lit>> = vec![None; n];
        let mut outputs = Vec::new();
        for &g in &cone {
            let gl = good[g as usize].expect("cone is encoded");
            let fl = faulty[g as usize].expect("cone is encoded");
            let d = sat.new_lit();
            sat.add_clause(&[!d, gl, fl]);
            sat.add_clause(&[!d, !gl, !fl]);
            diff[g as usize] = Some(d);
            if net.topology.output_mask()[g as usize] {
                outputs.push(d);
            }
        }
        let diff_of = |g: u32| diff[g as usize].expect("cone gate");
        sat.add_clause(&outputs);
        sat.add_clause(&[diff_of(site)]);
        let mut path = Vec::new();
        for &g in &cone {
            if !net.topology.output_mask()[g as usize] {
                path.clear();
                path.push(!diff_of(g));
                path.extend(net.readers(g).iter().map(|&r| diff_of(r)));
                sat.add_clause(&path);
            }
            if g != site {
                path.clear();
                path.push(!diff_of(g));
                path.extend(net.fanin(g).iter().filter_map(|&d| diff[d as usize]));
                sat.add_clause(&path);
            }
        }

        for &(i, v) in necessity {
            if let Some(l) = good[i] {
                sat.add_clause(&[l.is(v)]);
            }
        }
        if let Some(engine) = &self.implic {
            for (g, premise) in good.iter().enumerate() {
                let Some(premise) = *premise else { continue };
                for v in [false, true] {
                    for l in engine.learned_edges(GateId::from_index(g), v) {
                        if let Some(m) = good[l.net.index()] {
                            sat.add_clause(&[!premise.is(v), m.is(l.value)]);
                        }
                    }
                }
            }
        }
        (sat, good)
    }

    /// `v` with the faulty component forced by every output site on `g`
    /// (the last matching site wins).
    fn with_output_sites(s: &Scratch, sites: &[Fault], g: u32, mut v: DVal) -> DVal {
        if s.site[g as usize] & OUTPUT_SITE != 0 {
            for f in sites {
                if f.site.pin == Pin::Output && f.site.gate.index() == g as usize {
                    v.faulty = Logic::from(f.stuck);
                }
            }
        }
        v
    }

    /// The effective value seen by gate `g`'s input `pin`, applying the
    /// fault if it sits on that pin.
    fn pin_val(&self, s: &Scratch, sites: &[Fault], g: u32, pin: usize) -> DVal {
        let mut v = s.vals[self.net.fanin(g)[pin] as usize];
        if s.site[g as usize] & PIN_SITE != 0 {
            for f in sites {
                if f.site.gate.index() == g as usize && f.site.pin == Pin::Input(pin as u8) {
                    v.faulty = Logic::from(f.stuck);
                }
            }
        }
        v
    }

    /// The value of primary input `i` under the current assignment.
    fn pi_val(&self, s: &Scratch, sites: &[Fault], i: usize) -> DVal {
        let v = DVal::known(s.assign[i]);
        Self::with_output_sites(s, sites, self.net.pi_gate[i], v)
    }

    /// Evaluates non-input gate `g` from its drivers' current values.
    fn eval(&self, s: &Scratch, sites: &[Fault], g: u32) -> DVal {
        let v = match self.net.kinds[g as usize] {
            GateKind::Input => unreachable!("primary inputs are assigned, not evaluated"),
            GateKind::Const0 => DVal::ZERO,
            GateKind::Const1 => DVal::ONE,
            GateKind::Dff => DVal::X, // uncontrollable state
            kind => {
                let pins = (0..self.net.fanin(g).len()).map(|p| self.pin_val(s, sites, g, p));
                DVal {
                    good: Logic::eval_iter(kind, pins.clone().map(|v| v.good)),
                    faulty: Logic::eval_iter(kind, pins.map(|v| v.faulty)),
                }
            }
        };
        Self::with_output_sites(s, sites, g, v)
    }

    /// Forward implication of the current assignment. The first call of
    /// a search evaluates every gate in level order; later calls start
    /// from the reassigned primary inputs and re-evaluate a gate only
    /// when one of its drivers changed, draining the event buckets in
    /// ascending level order so each gate is evaluated at most once.
    fn forward(&self, s: &mut Scratch, sites: &[Fault], stats: &mut SolveStats) {
        let net = &self.net;
        if !s.primed {
            s.primed = true;
            s.dirty.clear();
            for i in 0..net.pi_gate.len() {
                s.vals[net.pi_gate[i] as usize] = self.pi_val(s, sites, i);
            }
            for g in net.order() {
                if net.kinds[g as usize] != GateKind::Input {
                    s.vals[g as usize] = self.eval(s, sites, g);
                    stats.gate_evals += 1;
                }
            }
            return;
        }

        let (mut lo, mut hi) = (usize::MAX, 0);
        while let Some(i) = s.dirty.pop() {
            let g = net.pi_gate[i as usize];
            let v = self.pi_val(s, sites, i as usize);
            if v != s.vals[g as usize] {
                s.vals[g as usize] = v;
                self.schedule_readers(s, g, &mut lo, &mut hi);
            }
        }
        let mut l = lo;
        while l <= hi {
            let base = net.level_start[l] as usize;
            let mut k = 0;
            while k < s.fill[l] as usize {
                let g = s.bucket[base + k];
                s.queued[g as usize] = false;
                let v = self.eval(s, sites, g);
                stats.gate_evals += 1;
                if v != s.vals[g as usize] {
                    s.vals[g as usize] = v;
                    self.schedule_readers(s, g, &mut lo, &mut hi);
                }
                k += 1;
            }
            s.fill[l] = 0;
            l += 1;
        }
    }

    /// Queues `g`'s combinational readers in their level buckets,
    /// widening the `lo..=hi` level window to cover them.
    fn schedule_readers(&self, s: &mut Scratch, g: u32, lo: &mut usize, hi: &mut usize) {
        let level = self.net.lv().levels();
        for &r in self.net.readers(g) {
            let ri = r as usize;
            if s.queued[ri] {
                continue;
            }
            s.queued[ri] = true;
            let l = level[ri] as usize;
            s.bucket[self.net.level_start[l] as usize + s.fill[l] as usize] = r;
            s.fill[l] += 1;
            *lo = (*lo).min(l);
            *hi = (*hi).max(l);
        }
    }

    fn detected(&self, vals: &[DVal]) -> bool {
        self.net.po_gate.iter().any(|&g| vals[g as usize].is_d())
    }

    /// The good-machine value at a fault's activation point, and the
    /// gate to backtrace from when exciting.
    fn excitation(&self, vals: &[DVal], fault: Fault) -> (Logic, u32) {
        let g = fault.site.gate.index() as u32;
        let driver = match fault.site.pin {
            Pin::Output => g,
            Pin::Input(p) => self.net.fanin(g)[p as usize],
        };
        (vals[driver as usize].good, driver)
    }

    /// Next objective `(net, value)`, or `None` when the current partial
    /// assignment can no longer lead to a test.
    fn objective(&self, s: &mut Scratch, sites: &[Fault]) -> Option<(u32, bool)> {
        // Is any site excited (a fault effect exists somewhere)?
        let mut excitable: Option<(u32, bool)> = None;
        let mut any_excited = false;
        for &f in sites {
            let (site_good, driver) = self.excitation(&s.vals, f);
            match site_good.to_bool() {
                None => {
                    if excitable.is_none() {
                        excitable = Some((driver, !f.stuck));
                    }
                }
                Some(v) if v != f.stuck => any_excited = true,
                Some(_) => {}
            }
        }
        if !any_excited {
            return excitable; // excite (or dead end if None)
        }
        // Excited: advance the D-frontier — gates with a fault effect on
        // an input and an undetermined output, in gate order. Of those
        // with an X-path to an output, the first cheapest to observe
        // wins; the checks run cheapest first, which changes no pick.
        let mut best: Option<(u32, u32, usize)> = None;
        for k in 0..s.cone.len() {
            let g = s.cone[k];
            if self.net.kinds[g as usize].is_source() || !s.vals[g as usize].has_x() {
                continue;
            }
            let fanin = self.net.fanin(g).len();
            if !(0..fanin).any(|p| self.pin_val(s, sites, g, p).is_d()) {
                continue;
            }
            let co = self.report.co(GateId::from_index(g as usize));
            if best.is_some_and(|(c, _, _)| co >= c) {
                continue;
            }
            // An X input pin to set to the noncontrolling value.
            let Some(pin) = (0..fanin).find(|&p| self.pin_val(s, sites, g, p).good == Logic::X)
            else {
                continue;
            };
            if self.x_path_to_po(s, g) {
                best = Some((co, g, pin));
            }
        }
        let Some((_, g, pin)) = best else {
            // No frontier progress possible: excite another site if one
            // remains, else dead end.
            return excitable;
        };
        let noncontrolling = match self.net.kinds[g as usize].controlling_value() {
            Some(c) => !c,
            // XOR family: any known value propagates; aim for 0.
            None => false,
        };
        Some((self.net.fanin(g)[pin], noncontrolling))
    }

    /// Whether an X-path (gates with undetermined outputs) connects `from`
    /// to some primary output.
    fn x_path_to_po(&self, s: &mut Scratch, from: u32) -> bool {
        let epoch = s.next_epoch();
        s.stack.clear();
        s.stack.push(from);
        s.seen[from as usize] = epoch;
        while let Some(g) = s.stack.pop() {
            if self.net.topology.output_mask()[g as usize] {
                return true;
            }
            for &r in self.net.readers(g) {
                let ri = r as usize;
                if s.seen[ri] != epoch && s.vals[ri].has_x() {
                    s.seen[ri] = epoch;
                    s.stack.push(r);
                }
            }
        }
        false
    }

    /// Maps an objective `(net, value)` to a primary-input assignment by
    /// walking X-paths toward inputs, guided by SCOAP costs.
    fn backtrace(&self, vals: &[DVal], mut net: u32, mut v: bool) -> Option<(u32, bool)> {
        let control = |g: u32, value: bool| {
            self.report
                .measure(GateId::from_index(g as usize))
                .control(value)
        };
        loop {
            let kind = self.net.kinds[net as usize];
            match kind {
                GateKind::Input => return Some((self.net.pi_pos[net as usize], v)),
                GateKind::Const0 | GateKind::Const1 | GateKind::Dff => return None,
                GateKind::Buf => net = self.net.fanin(net)[0],
                GateKind::Not => {
                    v = !v;
                    net = self.net.fanin(net)[0];
                }
                GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor => {
                    let c = kind.controlling_value().expect("AND/OR family");
                    // One controlling input suffices: take the first
                    // easiest. Otherwise all inputs must be
                    // noncontrolling: take the last hardest.
                    let easy = (v != kind.inverts()) == c;
                    let mut pick: Option<(u32, u32)> = None;
                    for &src in self.net.fanin(net) {
                        if vals[src as usize].good != Logic::X {
                            continue;
                        }
                        let cost = control(src, if easy { c } else { !c });
                        let better =
                            pick.is_none_or(|(b, _)| if easy { cost < b } else { cost >= b });
                        if better {
                            pick = Some((cost, src));
                        }
                    }
                    net = pick?.1;
                    v = if easy { c } else { !c };
                }
                GateKind::Xor | GateKind::Xnor => {
                    let mut parity = kind == GateKind::Xnor;
                    let mut pick = None;
                    for &src in self.net.fanin(net) {
                        match vals[src as usize].good.to_bool() {
                            Some(b) => parity ^= b,
                            None => {
                                if pick.is_none() {
                                    pick = Some(src);
                                }
                            }
                        }
                    }
                    // Remaining X inputs (other than the pick) are
                    // treated as 0 by this heuristic; forward
                    // implication corrects us.
                    net = pick?;
                    v = v != parity;
                }
            }
        }
    }
}

impl Podem<'static> {
    /// [`Podem::new`] over a netlist the solver takes ownership of, so
    /// the solver carries no borrow and can live beside the netlist it
    /// was built from — e.g. one warm solver per design revision in a
    /// long-lived session.
    ///
    /// # Errors
    ///
    /// Returns [`LevelizeError`] on combinational cycles.
    pub fn from_owned(netlist: Netlist, config: PodemConfig) -> Result<Self, LevelizeError> {
        let net = Compiled::new(&netlist)?;
        let report = analyze(&netlist)?;
        let implic = config
            .use_implications
            .then(|| ImplicationEngine::from_owned(netlist));
        Ok(Podem {
            net,
            report,
            config,
            implic,
        })
    }
}

/// One-shot convenience wrapper around [`Podem`].
///
/// # Errors
///
/// Returns [`LevelizeError`] on combinational cycles.
pub fn podem(
    netlist: &Netlist,
    fault: Fault,
    config: &PodemConfig,
) -> Result<GenOutcome, LevelizeError> {
    Ok(Podem::new(netlist, *config)?.solve(fault).0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dft_fault::{simulate, universe};
    use dft_netlist::circuits::{
        binary_counter, c17, comparator, full_adder, majority, parity_tree, random_combinational,
        shift_register,
    };
    use dft_netlist::{Netlist, PortRef};
    use dft_sim::PatternSet;
    use proptest::prelude::*;

    /// The full-pass forward implication the event-driven one replaced:
    /// every gate re-evaluated in level order from the assignment alone.
    /// Kept only as the oracle the incremental values are checked
    /// against.
    fn full_forward(solver: &Podem<'_>, assign: &[Logic], sites: &[Fault]) -> Vec<DVal> {
        let net = &solver.net;
        let id = |g: u32| GateId::from_index(g as usize);
        let output_sites = |g: u32, v: &mut DVal| {
            for f in sites {
                if f.site == PortRef::output(id(g)) {
                    v.faulty = Logic::from(f.stuck);
                }
            }
        };
        let mut vals = vec![DVal::X; net.gate_count()];
        for (i, &pi) in net.pi_gate.iter().enumerate() {
            let mut v = DVal::known(assign[i]);
            output_sites(pi, &mut v);
            vals[pi as usize] = v;
        }
        for g in net.order() {
            let mut v = match net.kinds[g as usize] {
                GateKind::Input => continue,
                GateKind::Const0 => DVal::ZERO,
                GateKind::Const1 => DVal::ONE,
                GateKind::Dff => DVal::X,
                kind => {
                    let mut goods = Vec::new();
                    let mut faulties = Vec::new();
                    for (p, &src) in net.fanin(g).iter().enumerate() {
                        let mut pv = vals[src as usize];
                        for f in sites {
                            if f.site == PortRef::input(id(g), p as u8) {
                                pv.faulty = Logic::from(f.stuck);
                            }
                        }
                        goods.push(pv.good);
                        faulties.push(pv.faulty);
                    }
                    DVal {
                        good: Logic::eval_gate(kind, &goods),
                        faulty: Logic::eval_gate(kind, &faulties),
                    }
                }
            };
            output_sites(g, &mut v);
            vals[g as usize] = v;
        }
        vals
    }

    /// Runs one search with the oracle checked after every forward
    /// step, and checks the hooked search answers like a plain one.
    fn search_checked(solver: &Podem<'_>, sites: &[Fault]) {
        let full_pass = solver
            .net
            .kinds
            .iter()
            .filter(|&&k| k != GateKind::Input)
            .count() as u64;
        let mut steps = 0u64;
        let checked = solver.search(sites, |s| {
            steps += 1;
            assert_eq!(
                s.vals,
                full_forward(solver, &s.assign, sites),
                "incremental values diverge at step {steps} for {sites:?}"
            );
        });
        assert_eq!(checked, solver.solve_any_of(sites));
        let stats = checked.1;
        assert_eq!(stats.forward_evals, steps);
        assert!(steps == 0 || stats.gate_evals >= full_pass);
        assert!(stats.gate_evals <= full_pass * steps);
    }

    #[test]
    fn incremental_forward_matches_full_pass_on_unrolled_machines() {
        // Time-frame expansion: storage sources in frame 0 and one
        // fault replicated into every frame (multi-site searches).
        for n in [shift_register(3), binary_counter(3)] {
            let unrolled = crate::Unrolled::build(&n, 3).unwrap();
            let solver = Podem::new(unrolled.netlist(), PodemConfig::default()).unwrap();
            for f in universe(&n) {
                let sites = unrolled.replicate_fault(f);
                if !sites.is_empty() {
                    search_checked(&solver, &sites);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// After every search step, the event-driven values equal a full
        /// re-simulation of the current assignment — for single faults
        /// and for a two-site fault, with and without implications.
        #[test]
        fn incremental_forward_matches_full_pass(
            seed in 0u64..1000,
            pick in any::<u64>(),
            use_implications: bool,
        ) {
            let n = random_combinational(8, 40, seed);
            let faults = universe(&n);
            let config = PodemConfig::new().with_use_implications(use_implications);
            let solver = Podem::new(&n, config).unwrap();
            let k = faults.len() as u64;
            let a = faults[(pick % k) as usize];
            let b = faults[(pick / k % k) as usize];
            for sites in [vec![a], vec![b], vec![a, b]] {
                search_checked(&solver, &sites);
            }
        }
    }

    /// Every generated cube must actually detect its fault (independent
    /// check through the fault simulator).
    fn verify_all(netlist: &Netlist) {
        let faults = universe(netlist);
        let solver = Podem::new(netlist, PodemConfig::default()).unwrap();
        for &f in &faults {
            let (outcome, _) = solver.solve(f);
            match outcome {
                GenOutcome::Test(cube) => {
                    let row = cube.filled(false);
                    let p = PatternSet::from_rows(row.len(), &[row]);
                    let r = simulate(netlist, &p, &[f]).unwrap();
                    assert_eq!(
                        r.first_detected[0],
                        Some(0),
                        "cube for {f} does not detect it on {}",
                        netlist.name()
                    );
                }
                GenOutcome::Untestable => {
                    // Cross-check with exhaustive fault simulation.
                    let k = netlist.primary_inputs().len();
                    assert!(k <= 12, "exhaustive check infeasible");
                    let rows: Vec<Vec<bool>> = (0..1usize << k)
                        .map(|v| (0..k).map(|i| v >> i & 1 == 1).collect())
                        .collect();
                    let p = PatternSet::from_rows(k, &rows);
                    let r = simulate(netlist, &p, &[f]).unwrap();
                    assert_eq!(
                        r.first_detected[0],
                        None,
                        "{f} declared untestable but a test exists on {}",
                        netlist.name()
                    );
                }
                GenOutcome::Aborted => panic!("abort on tiny circuit for {f}"),
            }
        }
    }

    #[test]
    fn complete_and_sound_on_c17() {
        verify_all(&c17());
    }

    #[test]
    fn complete_and_sound_on_full_adder() {
        verify_all(&full_adder());
    }

    #[test]
    fn complete_and_sound_on_majority() {
        verify_all(&majority());
    }

    #[test]
    fn complete_and_sound_on_parity_tree() {
        verify_all(&parity_tree(5));
    }

    #[test]
    fn complete_and_sound_on_comparator() {
        verify_all(&comparator(3));
    }

    #[test]
    fn complete_and_sound_on_random_logic() {
        let n = dft_netlist::circuits::random_combinational(9, 40, 77);
        verify_all(&n);
    }

    /// Runs the CDCL prover alone (no search, no conflict limit) on
    /// `f`, seeded as [`Podem::settle`] seeds it. A statically proven
    /// fault gets the bare miter.
    fn cdcl_alone(solver: &Podem<'_>, f: Fault) -> (Verdict, Solver, Vec<Option<Lit>>) {
        let necessity = solver.necessity(&[f]).unwrap_or_default();
        let (mut sat, good) = solver.miter(f, &necessity);
        (sat.solve(u64::MAX), sat, good)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// The CDCL prover on every fault of a random circuit of up to
        /// 16 inputs, against exhaustive simulation: the miter is
        /// unsatisfiable exactly when no pattern detects the fault, and
        /// every model's input assignment is a test.
        #[test]
        fn cdcl_verdicts_match_exhaustive_simulation(
            inputs in 2usize..17,
            gates in 8usize..60,
            seed in 0u64..1000,
            use_implications: bool,
        ) {
            let n = random_combinational(inputs, gates, seed);
            let config = PodemConfig::new().with_use_implications(use_implications);
            let solver = Podem::new(&n, config).unwrap();
            let faults = universe(&n);
            let k = n.primary_inputs().len();
            let rows: Vec<Vec<bool>> = (0..1usize << k)
                .map(|v| (0..k).map(|i| v >> i & 1 == 1).collect())
                .collect();
            let all = PatternSet::from_rows(k, &rows);
            let exhaustive = dft_fault::Ppsfp::new(&n).unwrap().run(&all, &faults);
            for (i, &f) in faults.iter().enumerate() {
                let (verdict, sat, good) = cdcl_alone(&solver, f);
                let testable = exhaustive.first_detected[i].is_some();
                prop_assert_eq!(verdict == Verdict::Unsat, !testable, "{} on {}", f, n.name());
                if verdict == Verdict::Sat {
                    let row: Vec<bool> = solver
                        .net
                        .pi_gate
                        .iter()
                        .map(|&g| good[g as usize].is_some_and(|l| sat.model(l)))
                        .collect();
                    let p = PatternSet::from_rows(k, &[row]);
                    let r = simulate(&n, &p, &[f]).unwrap();
                    prop_assert!(r.first_detected[0].is_some(), "model misses {}", f);
                }
            }
        }
    }

    #[test]
    fn cdcl_never_refutes_a_search_test_behind_storage() {
        // Dff outputs are free in the miter and X in the search: an
        // unsatisfiable miter must still mean the search finds no test.
        for n in [shift_register(3), binary_counter(3)] {
            let solver = Podem::new(&n, PodemConfig::default()).unwrap();
            for f in universe(&n) {
                let (verdict, _, _) = cdcl_alone(&solver, f);
                if verdict == Verdict::Unsat {
                    let (outcome, _) = solver.solve(f);
                    assert!(outcome.cube().is_none(), "{f} refuted but tested");
                }
                assert_eq!(solver.settle(f).0.cube(), solver.solve(f).0.cube());
            }
        }
    }

    #[test]
    fn proves_redundant_fault_untestable() {
        use dft_netlist::GateKind;
        let mut n = Netlist::new("redundant");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g = n.add_gate(GateKind::And, &[a, b]).unwrap();
        let y = n.add_gate(GateKind::Or, &[a, g]).unwrap();
        n.mark_output(y, "y").unwrap();
        let f = dft_fault::Fault::stuck_at_0(PortRef::output(g));
        let outcome = podem(&n, f, &PodemConfig::default()).unwrap();
        assert_eq!(outcome, GenOutcome::Untestable);
    }

    #[test]
    fn state_behind_dffs_is_uncontrollable() {
        // y = AND(a, q) where q is an uncontrollable DFF: the a s-a-0
        // fault cannot be tested combinationally (needs q = 1).
        use dft_netlist::GateKind;
        let mut n = Netlist::new("seq");
        let a = n.add_input("a");
        let d = n.add_dff(a).unwrap();
        let y = n.add_gate(GateKind::And, &[a, d]).unwrap();
        n.mark_output(y, "y").unwrap();
        let f = dft_fault::Fault::stuck_at_0(PortRef::input(y, 0));
        let outcome = podem(&n, f, &PodemConfig::default()).unwrap();
        assert_eq!(
            outcome,
            GenOutcome::Untestable,
            "combinational ATPG must give up on state — the paper's motivation for scan"
        );
    }

    #[test]
    fn cube_helpers() {
        let c1 = TestCube {
            assignment: vec![Logic::One, Logic::X, Logic::Zero],
        };
        let c2 = TestCube {
            assignment: vec![Logic::X, Logic::Zero, Logic::Zero],
        };
        assert!(c1.compatible(&c2));
        let m = c1.merged(&c2);
        assert_eq!(m.assignment, vec![Logic::One, Logic::Zero, Logic::Zero]);
        assert_eq!(m.care_count(), 3);
        assert_eq!(c1.filled(true), vec![true, true, false]);
        let c3 = TestCube {
            assignment: vec![Logic::Zero, Logic::X, Logic::X],
        };
        assert!(!c1.compatible(&c3));
    }
}
