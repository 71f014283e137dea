//! The implication engine: event-driven three-valued propagation plus
//! SOCRATES-style static learning.
//!
//! # The model
//!
//! All facts are statements about the *combinational test view*: a
//! complete primary-input assignment, gates evaluated in three-valued
//! logic, storage-element (`Dff`) outputs pinned at `X` (uncontrollable
//! state — exactly the view `dft-atpg` searches). A propagated value
//! `net = v` means *every* complete assignment consistent with the seed
//! literal produces `v` at that net.
//!
//! Three rule families keep that invariant:
//!
//! * forward gate evaluation ([`Logic::eval_gate`] — monotone in the
//!   Kleene order, so known consequences of known premises are exact);
//! * backward justification ([`forced_inputs_into`] — necessary conditions
//!   only, never choices);
//! * learned edges, applied only when **both** endpoints are *definite*
//!   nets (no storage element anywhere in the transitive fanin cone).
//!   Definite nets evaluate to a known value under every complete
//!   assignment, which is what makes the contrapositive of an
//!   implication exact rather than merely "not the opposite value".
//!
//! A required known value on a `Dff` output is a contradiction (state is
//! never controllable here), and a seed whose propagation contradicts
//! itself is *unsettable* — the root fact behind every static
//! untestability verdict in [`crate::UntestableReason`].

use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use dft_netlist::{ArenaDiff, GateId, GateKind, Netlist, Readers};
use dft_obs::{Collector, Obs};
use dft_sim::justify::forced_inputs_into;
use dft_sim::Logic;

/// One signed net: the assertion `net = value`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Literal {
    /// The net (gate output) the assertion is about.
    pub net: GateId,
    /// The asserted logic value.
    pub value: bool,
}

impl Literal {
    fn from_index(i: usize) -> Self {
        Literal {
            net: GateId::from_index(i / 2),
            value: i % 2 == 1,
        }
    }
}

impl std::fmt::Display for Literal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "g{}={}", self.net.index(), u8::from(self.value))
    }
}

/// Assign–propagate–contrapose rounds a build runs at most. Learning
/// stops early once a round adds no edge.
const LEARNING_ROUNDS: usize = 4;

/// Netlists with more gates than this skip learning (the learning pass
/// keeps a dense implication matrix of `(2·gates)²` bits while it runs).
const LEARN_GATE_LIMIT: usize = 4096;

/// Counters from the build/learning phase.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LearnStats {
    /// Assign–propagate–contrapose rounds actually run.
    pub rounds: usize,
    /// Indirect implications discovered (edges in the learned store).
    pub learned_edges: usize,
    /// Literals proven unsettable (no input assignment produces them).
    pub unsettable_literals: usize,
    /// Nets fixed to a constant by the implication closure.
    pub implied_constants: usize,
    /// Propagation fixpoints the build ran: one per literal per round
    /// whose row could not be reused, plus one per implied-constant
    /// closure.
    pub propagations: usize,
    /// Literal propagations skipped because the literal's previous row
    /// provably repeats (see [`ImplicationEngine::new`]).
    pub rows_reused: usize,
    /// Literal propagations skipped because the prior engine's outcome
    /// for the same literal and round provably repeats on the edited
    /// netlist (see [`ImplicationEngine::rebase`]). A rebased build's
    /// `propagations + rows_rebased` equals a from-scratch build's
    /// `propagations`; a from-scratch build reports 0.
    pub rows_rebased: usize,
}

/// The result of propagating one seed literal to a fixpoint.
#[derive(Clone, Debug)]
pub struct Implications {
    /// The net where propagation contradicted itself, if it did. A
    /// conflict proves the seed literal unsettable.
    pub conflict: Option<GateId>,
    /// Every `net = value` fact forced by the seed (the seed itself
    /// included), beyond the globally-constant nets.
    pub implied: Vec<Literal>,
}

impl Implications {
    /// Whether the seed literal is satisfiable at all.
    #[must_use]
    pub fn consistent(&self) -> bool {
        self.conflict.is_none()
    }
}

/// Reusable event-driven propagation scratch (epoch-stamped so repeated
/// runs need no clearing).
pub(crate) struct Prop {
    val: Vec<Logic>,
    stamp: Vec<u32>,
    queued: Vec<u32>,
    pub(crate) epoch: u32,
    trail: Vec<u32>,
    gates: Vec<u32>,
    pending: Vec<(u32, bool)>,
    ins: Vec<Logic>,
    forced: Vec<(usize, Logic)>,
}

impl Prop {
    pub(crate) fn new(n: usize) -> Self {
        Prop {
            val: vec![Logic::X; n],
            stamp: vec![0; n],
            queued: vec![0; n],
            epoch: 0,
            trail: Vec::new(),
            gates: Vec::new(),
            pending: Vec::new(),
            ins: Vec::new(),
            forced: Vec::new(),
        }
    }

    /// Test hook: every stamp at epoch 1 with a junk value, and the
    /// odometer at the end of its lap.
    #[cfg(test)]
    pub(crate) fn stale_lap(&mut self) {
        self.val.fill(Logic::One);
        self.stamp.fill(1);
        self.queued.fill(1);
        self.epoch = u32::MAX;
    }

    /// Starts a propagation with nothing assigned.
    pub(crate) fn begin(&mut self) {
        begin_epoch(self);
    }

    /// Assigns `net = value` in the current propagation.
    pub(crate) fn assign(&mut self, net: usize, value: bool) {
        self.val[net] = Logic::from(value);
        self.stamp[net] = self.epoch;
        self.trail.push(net as u32);
    }

    /// The literals the last propagation assigned, in trail order.
    pub(crate) fn trail_lits(&self) -> impl Iterator<Item = u32> + '_ {
        self.trail
            .iter()
            .map(|&i| i * 2 + u32::from(self.val[i as usize] == Logic::One))
    }

    /// The value of net `i` in the last propagation: its propagated
    /// value, or the global default from `fixed`.
    pub(crate) fn get(&self, fixed: &[Logic], i: usize) -> Logic {
        if self.stamp[i] == self.epoch {
            self.val[i]
        } else {
            fixed[i]
        }
    }
}

/// Borrowed view of everything propagation reads.
pub(crate) struct Ctx<'a> {
    netlist: &'a Netlist,
    fanout: &'a Readers,
    fixed: &'a [Logic],
    definite: &'a [bool],
    learned: &'a [Vec<Literal>],
}

/// Propagates `seeds` to a fixpoint. `Err(net)` reports the net where a
/// contradiction surfaced (the seed set is unsatisfiable); on `Ok` the
/// consequences are on `prop.trail`.
pub(crate) fn propagate(
    ctx: &Ctx<'_>,
    prop: &mut Prop,
    seeds: &[(u32, bool)],
) -> Result<(), GateId> {
    begin_epoch(prop);
    prop.pending.extend_from_slice(seeds);
    drain(ctx, prop)
}

fn begin_epoch(prop: &mut Prop) {
    prop.epoch = prop.epoch.wrapping_add(1);
    if prop.epoch == 0 {
        // One lap of the u32 odometer: stale stamps could now collide.
        prop.stamp.fill(0);
        prop.queued.fill(0);
        prop.epoch = 1;
    }
    prop.trail.clear();
    prop.gates.clear();
    prop.pending.clear();
}

/// The propagation fixpoint loop: alternately commits pending
/// assignments (checking for contradictions, firing learned edges) and
/// re-evaluates queued gates forward and backward.
fn drain(ctx: &Ctx<'_>, prop: &mut Prop) -> Result<(), GateId> {
    loop {
        // Drain assignments first: each may enqueue gates and (via
        // learned edges) further assignments.
        while let Some((i, v)) = prop.pending.pop() {
            let i = i as usize;
            let cur = prop.get(ctx.fixed, i);
            if let Some(b) = cur.to_bool() {
                if b != v {
                    return Err(GateId::from_index(i));
                }
                continue;
            }
            // State is never controllable in the combinational view: a
            // required known value on a Dff output is a contradiction.
            if ctx.netlist.gate(GateId::from_index(i)).kind() == GateKind::Dff {
                return Err(GateId::from_index(i));
            }
            prop.val[i] = Logic::from(v);
            prop.stamp[i] = prop.epoch;
            prop.trail.push(i as u32);
            if prop.queued[i] != prop.epoch {
                prop.queued[i] = prop.epoch;
                prop.gates.push(i as u32);
            }
            for &(reader, _) in &ctx.fanout[i] {
                let r = reader.index();
                if prop.queued[r] != prop.epoch {
                    prop.queued[r] = prop.epoch;
                    prop.gates.push(r as u32);
                }
            }
            for lit in &ctx.learned[i * 2 + usize::from(v)] {
                if ctx.definite[lit.net.index()] {
                    prop.pending.push((lit.net.index() as u32, lit.value));
                }
            }
        }
        let Some(g) = prop.gates.pop() else {
            return Ok(());
        };
        let gi = g as usize;
        prop.queued[gi] = 0;
        let gate = ctx.netlist.gate(GateId::from_index(gi));
        let kind = gate.kind();
        if kind.is_source() {
            match kind {
                GateKind::Const0 => prop.pending.push((g, false)),
                GateKind::Const1 => prop.pending.push((g, true)),
                _ => {}
            }
            continue;
        }
        prop.ins.clear();
        for &s in gate.inputs() {
            let v = prop.get(ctx.fixed, s.index());
            prop.ins.push(v);
        }
        let out = Logic::eval_gate(kind, &prop.ins);
        if let Some(b) = out.to_bool() {
            prop.pending.push((g, b));
        }
        if let Some(ob) = prop.get(ctx.fixed, gi).to_bool() {
            forced_inputs_into(kind, ob, &prop.ins, &mut prop.forced);
            for &(pin, fv) in &prop.forced {
                let src = gate.inputs()[pin];
                let fb = fv.to_bool().expect("forced values are known");
                prop.pending.push((src.index() as u32, fb));
            }
        }
    }
}

/// A static implication engine over one netlist: direct implications,
/// learned indirect implications, implied constants, and unsettable
/// literals. Build once per netlist, query per fault or per assignment.
///
/// The engine borrows its netlist ([`ImplicationEngine::new`]) or owns
/// it ([`ImplicationEngine::from_owned`]); an owning engine can be stored
/// beside the netlist it was built from, e.g. in a long-lived session.
#[derive(Debug)]
pub struct ImplicationEngine<'n> {
    netlist: Cow<'n, Netlist>,
    definite: Vec<bool>,
    pub(crate) fixed: Vec<Logic>,
    unsettable: Vec<bool>,
    learned: Vec<Vec<Literal>>,
    stats: LearnStats,
    /// Names this engine to the verdict records it makes.
    pub(crate) serial: u64,
    /// What learning read, kept for [`ImplicationEngine::rebase`]; `None`
    /// when the build ran no learning round.
    record: Option<LearnRecord>,
    /// For a rebased engine: what the edit changed against its prior.
    pub(crate) rebased: Option<RebaseDiff>,
    /// Learned-edge premises by target net, built on first rebase.
    premises: OnceLock<Csr>,
    /// The recorded traces by literal, built on first rebase.
    slots: OnceLock<Csr>,
}

/// Serial numbers of built engines.
static NEXT_SERIAL: AtomicU64 = AtomicU64::new(1);

impl ImplicationEngine<'static> {
    /// [`ImplicationEngine::new`] over a netlist the engine takes
    /// ownership of, so the engine carries no borrow.
    #[must_use]
    pub fn from_owned(netlist: Netlist) -> Self {
        Self::build(Cow::Owned(netlist))
    }
}

impl<'n> ImplicationEngine<'n> {
    /// Builds the engine: seeds global constants, then runs up to four
    /// assign–propagate–contrapose learning rounds, stopping early once
    /// a round adds no edge. Netlists over 4,096 gates get the direct
    /// implications only.
    ///
    /// Rounds are incremental. A literal's propagation reads only the
    /// global constants and the learned edges whose premises it assigns,
    /// so it repeats its previous round exactly when no constant was
    /// added since its row was computed and no literal on its previous
    /// trail gained an edge in the round just finished. Such rows are
    /// kept rather than propagated again ([`LearnStats::rows_reused`]).
    #[must_use]
    pub fn new(netlist: &'n Netlist) -> Self {
        Self::new_observed(netlist, None)
    }

    /// [`ImplicationEngine::new`] feeding telemetry to an optional
    /// collector — the uniform observed entry point.
    ///
    /// Opens an `implic.learn` span and flushes the [`LearnStats`]
    /// counters once the build completes (`rounds`, `learned_edges`,
    /// `unsettable_literals`, `implied_constants`, `propagations`,
    /// `rows_reused`, `rows_rebased`, plus `gates` for scale); the legacy
    /// [`ImplicationEngine::stats`] view is unchanged.
    #[must_use]
    pub fn new_observed(netlist: &'n Netlist, obs: Option<&mut dyn Collector>) -> Self {
        let mut obs = Obs::new(obs);
        obs.enter("implic.learn");
        let engine = Self::build(Cow::Borrowed(netlist));
        obs.count("gates", netlist.gate_count() as u64);
        obs.count("rounds", engine.stats.rounds as u64);
        obs.count("learned_edges", engine.stats.learned_edges as u64);
        obs.count(
            "unsettable_literals",
            engine.stats.unsettable_literals as u64,
        );
        obs.count("implied_constants", engine.stats.implied_constants as u64);
        obs.count("propagations", engine.stats.propagations as u64);
        obs.count("rows_reused", engine.stats.rows_reused as u64);
        obs.count("rows_rebased", engine.stats.rows_rebased as u64);
        obs.exit();
        engine
    }

    /// Builds the engine [`ImplicationEngine::new`] would build over
    /// `edited`, copying from this engine whatever the edit cannot
    /// reach.
    ///
    /// `edited` is this engine's netlist after in-place rewrites and
    /// appended gates (an append-only evolution of the arena, as every
    /// `dft-repair` edit is), and `diff` is how it differs
    /// ([`Netlist::arena_diff`], or what the edit reported). The build
    /// runs the same rounds as a
    /// from-scratch one, in the same literal order, but before it
    /// propagates a literal it offers the prior's outcome for that
    /// literal and round. The outcome is copied when the prior
    /// propagation read nothing the edit changed: no gate record it
    /// queued, no reader list of a net it assigned, no implied constant
    /// or definiteness it read at that point of the replay, and no
    /// learned-edge list of a literal it assigned
    /// ([`LearnStats::rows_rebased`] counts the copies). A fold that
    /// turns a net the prior already proved constant into a `Const` gate
    /// leaves its readers reading the same value, so only propagations
    /// that evaluate the folded gate or its dead fan-in must run again.
    ///
    /// Only the (round, literal) slots whose recorded trace meets a
    /// literal the replay has marked are checked and, failing the check,
    /// propagated; an index from each literal to the traces holding it,
    /// built on this engine's first rebase, finds them, and every other
    /// slot takes this engine's outcome as it stands. A rebased engine
    /// keeps no learning record of its own.
    ///
    /// A rebased engine also counts untestable faults from a batch this
    /// engine recorded, re-deciding only the verdicts the edit can flip
    /// ([`ImplicationEngine::untestable_count_rebased`]). When this
    /// engine keeps no learning record (it ran no learning round, or was
    /// itself rebased), `edited` is over the learning limit, or `edited`
    /// has fewer gates than this engine's netlist (it is no append-only
    /// evolution of the arena, and no diff can describe it), the build
    /// is a plain from-scratch one. Any other `diff` must be exactly
    /// [`Netlist::arena_diff`] of the two netlists; debug builds check
    /// it.
    #[must_use]
    pub fn rebase<'e>(&self, edited: &'e Netlist, diff: &ArenaDiff) -> ImplicationEngine<'e> {
        let Some(mut replay) = Replay::new(self, edited, diff) else {
            return ImplicationEngine::build(Cow::Borrowed(edited));
        };
        let mut engine = ImplicationEngine::build_using(
            Cow::Borrowed(edited),
            LEARNING_ROUNDS,
            |e, prop, rounds| {
                e.learn(prop, rounds, Some(&mut replay));
            },
        );
        engine.rebased = Some(replay.finish(&engine));
        engine
    }

    /// Whether a consistent propagation recorded by the prior engine,
    /// which assigned `lits` while the nets of `known` were unknown,
    /// reaches the same fixpoint here, where their constants are known.
    ///
    /// Knowing more can only add consequences, so the fixpoint is the
    /// same exactly when no gate the propagation queued that reads or
    /// drives a net of `known` derives anything new from the trace's
    /// values and this engine's constants: no forward value it lacks, no
    /// backward-forced input it lacks, no contradiction.
    pub(crate) fn closes(&self, known: &[u32], lits: &[u32], scratch: &mut TraceValues) -> bool {
        scratch.load(self.netlist.gate_count(), lits);
        for &x in known {
            let x = x as usize;
            if scratch.on_trace(x) {
                return false;
            }
            let around = std::iter::once(x).chain(self.readers()[x].iter().map(|(r, _)| r.index()));
            for q in around {
                let gate = self.netlist.gate(GateId::from_index(q));
                let queued = scratch.on_trace(q)
                    || gate.inputs().iter().any(|s| scratch.on_trace(s.index()));
                if queued && !self.closed_at(q, scratch) {
                    return false;
                }
            }
        }
        true
    }

    /// Whether gate `q`'s forward and backward rules derive nothing new
    /// under `scratch`'s trace values over this engine's constants.
    fn closed_at(&self, q: usize, scratch: &mut TraceValues) -> bool {
        let gate = self.netlist.gate(GateId::from_index(q));
        let kind = gate.kind();
        if kind.is_source() {
            return true;
        }
        let value = |i: usize| {
            if scratch.stamp[i] == scratch.epoch {
                scratch.val[i]
            } else {
                self.fixed[i]
            }
        };
        let mut ins = std::mem::take(&mut scratch.ins);
        ins.clear();
        ins.extend(gate.inputs().iter().map(|s| value(s.index())));
        let out = Logic::eval_gate(kind, &ins);
        let own = value(q);
        let mut closed = !out.is_known() || out == own;
        if let (true, Some(b)) = (closed, own.to_bool()) {
            forced_inputs_into(kind, b, &ins, &mut scratch.forced);
            closed = scratch.forced.iter().all(|&(pin, v)| ins[pin] == v);
        }
        scratch.ins = ins;
        closed
    }

    /// Learned-edge premises by target net (over the final store).
    fn premises(&self) -> &Csr {
        self.premises.get_or_init(|| {
            Csr::build(self.netlist.gate_count(), |emit| {
                for (premise, list) in self.learned.iter().enumerate() {
                    for t in list {
                        emit(t.net.index(), premise as u32);
                    }
                }
            })
        })
    }

    /// The recorded traces by the literals [`reaches`] tests in them —
    /// the seed, every assigned literal and the conflict net's first
    /// literal — as `at` entries (1 + the trace index). Built on first
    /// rebase.
    fn slots(&self) -> &Csr {
        self.slots.get_or_init(|| {
            let record = self
                .record
                .as_ref()
                .expect("only a recording engine rebases");
            Csr::build(2 * self.netlist.gate_count(), |emit| {
                for (k, t) in record.traces.iter().enumerate() {
                    let k = k as u32 + 1;
                    emit(t.seed as usize, k);
                    for &l in &record.lits[t.start as usize..t.end as usize] {
                        emit(l as usize, k);
                    }
                    if t.conflict != NO_CONFLICT {
                        emit(2 * t.conflict as usize, k);
                    }
                }
            })
        })
    }

    fn build(netlist: Cow<'n, Netlist>) -> Self {
        Self::build_using(netlist, LEARNING_ROUNDS, |e, prop, rounds| {
            e.learn(prop, rounds, None)
        })
    }

    /// [`ImplicationEngine::build`] with the round limit and the learning
    /// pass supplied: the from-scratch pass, the same pass replaying a
    /// prior engine, or (in tests) a reference pass or another limit.
    fn build_using(
        netlist: Cow<'n, Netlist>,
        rounds: usize,
        learn: impl FnOnce(&mut Self, &mut Prop, usize),
    ) -> Self {
        let n = netlist.gate_count();
        let fanout = netlist.topology().readers();

        // Non-definite nets: anything downstream of a storage element.
        let mut definite = vec![true; n];
        let mut stack: Vec<GateId> = Vec::new();
        for (id, gate) in netlist.iter() {
            if gate.kind().is_storage() {
                definite[id.index()] = false;
                stack.push(id);
            }
        }
        while let Some(g) = stack.pop() {
            for &(reader, _) in &fanout[g.index()] {
                if definite[reader.index()] {
                    definite[reader.index()] = false;
                    stack.push(reader);
                }
            }
        }

        let mut engine = ImplicationEngine {
            netlist,
            definite,
            fixed: vec![Logic::X; n],
            unsettable: vec![false; 2 * n],
            learned: vec![Vec::new(); 2 * n],
            stats: LearnStats::default(),
            serial: NEXT_SERIAL.fetch_add(1, Ordering::Relaxed),
            record: None,
            rebased: None,
            premises: OnceLock::new(),
            slots: OnceLock::new(),
        };
        let mut prop = Prop::new(n);

        // Structural constants (plain forward/backward closure with no
        // seed) become the defaults every later propagation starts from.
        engine.seed_structural_constants(&mut prop);

        // Dff outputs are never settable in the combinational view.
        for (id, gate) in engine.netlist.iter() {
            if gate.kind().is_storage() {
                engine.unsettable[id.index() * 2] = true;
                engine.unsettable[id.index() * 2 + 1] = true;
            }
        }

        // Over the gate limit, still harvest unsettables/constants from
        // one direct round.
        let rounds = if n <= LEARN_GATE_LIMIT { rounds } else { 0 };
        learn(&mut engine, &mut prop, rounds);

        engine.stats.unsettable_literals = engine.unsettable.iter().filter(|&&u| u).count();
        engine.stats.implied_constants = engine.fixed.iter().filter(|v| v.is_known()).count();
        engine
    }

    /// The netlist's reader lists, from its memoized topology.
    pub(crate) fn readers(&self) -> &Readers {
        self.netlist.topology().readers()
    }

    pub(crate) fn ctx(&self) -> Ctx<'_> {
        Ctx {
            netlist: &self.netlist,
            fanout: self.readers(),
            fixed: &self.fixed,
            definite: &self.definite,
            learned: &self.learned,
        }
    }

    fn seed_structural_constants(&mut self, prop: &mut Prop) {
        let ctx = self.ctx();
        begin_epoch(prop);
        for i in 0..self.netlist.gate_count() {
            prop.queued[i] = prop.epoch;
            prop.gates.push(i as u32);
        }
        // No seed: a conflict is impossible, every derived value is a
        // true constant of the network.
        if drain(&ctx, prop).is_ok() {
            for &i in &prop.trail {
                self.fixed[i as usize] = prop.val[i as usize];
            }
        }
    }

    /// Records a freshly-proven constant `net = value` and folds its
    /// full implication closure (forward *and* backward) into the
    /// defaults, appending every net it fixes to `fixes`.
    fn add_constant(
        &mut self,
        prop: &mut Prop,
        net: usize,
        value: bool,
        fixes: &mut Vec<(u32, Logic)>,
    ) {
        if self.fixed[net].is_known() {
            return;
        }
        self.stats.propagations += 1;
        if propagate(&self.ctx(), prop, &[(net as u32, value)]).is_ok() {
            for &i in &prop.trail {
                self.fixed[i as usize] = prop.val[i as usize];
                fixes.push((i, prop.val[i as usize]));
            }
        } else {
            // Both polarities contradict — only reachable on degenerate
            // inputs; record the single fact and move on.
            self.fixed[net] = Logic::from(value);
            fixes.push((net as u32, Logic::from(value)));
        }
    }

    /// The learning rounds. With a `replay`, every literal propagation
    /// is first offered the prior engine's outcome for the same literal
    /// and round, which is copied when the edit cannot reach anything
    /// the prior propagation read ([`ImplicationEngine::rebase`]).
    fn learn(&mut self, prop: &mut Prop, rounds: usize, replay: Option<&mut Replay<'_>>) {
        let n = self.netlist.gate_count();
        let nlit = 2 * n;
        let words = nlit.div_ceil(64);

        // Round 0 (always run): direct propagation of every literal,
        // harvesting unsettables and implied constants. Rounds 1..:
        // additionally contrapose the implication rows into learned
        // edges and go again, now propagating *through* them.
        //
        // The rows live across rounds. A row is valid while its literal
        // propagates consistently; it stays current while no constant is
        // added (`row_rev` against `fixed_rev`) and none of its trail
        // literals is the premise of a freshly learned edge (`fresh`).
        let mut rows: Vec<u64> = if rounds > 0 {
            vec![0; nlit * words]
        } else {
            Vec::new()
        };
        let mut row_valid = vec![false; nlit];
        let mut row_rev = vec![0usize; nlit];
        let mut fixed_rev = 0usize;
        let mut fresh = vec![0u64; words];
        // A from-scratch learning build records what it read, so that a
        // build over an edited netlist can copy what the edit cannot
        // reach. A rebased build keeps no record: nothing rebases it.
        let mut record = (rounds > 0 && replay.is_none()).then(|| LearnRecord::new(&self.fixed));
        let mut replay = replay.filter(|_| rounds > 0);
        if let Some(replay) = replay.as_deref_mut() {
            replay.start(self);
        }
        let mut trace: Vec<u32> = Vec::new();
        let mut fixes: Vec<(u32, Logic)> = Vec::new();

        for round in 0..=rounds {
            if let Some(record) = &mut record {
                record.at.push(vec![0; nlit]);
            }
            for lit in 0..nlit {
                if let Some(replay) = replay.as_deref_mut() {
                    replay.advance(round, lit, &self.fixed);
                }
                let net = lit / 2;
                let value = lit % 2 == 1;
                if self.unsettable[lit] {
                    continue;
                }
                if let Some(c) = self.fixed[net].to_bool() {
                    if c != value {
                        self.unsettable[lit] = true;
                    }
                    // Constant literals imply nothing worth learning.
                    row_valid[lit] = false;
                    continue;
                }
                if row_valid[lit] && row_rev[lit] == fixed_rev {
                    let row = &rows[lit * words..(lit + 1) * words];
                    if row.iter().zip(&fresh).all(|(r, f)| r & f == 0) {
                        self.stats.rows_reused += 1;
                        if let Some(record) = &mut record {
                            record.at[round][lit] = record.at[round - 1][lit];
                        }
                        continue;
                    }
                }
                let copied = replay
                    .as_deref_mut()
                    .and_then(|r| r.copyable(round, lit, self));
                let (outcome, lits): (_, &[u32]) = match copied {
                    Some((lits, conflict)) => {
                        self.stats.rows_rebased += 1;
                        (conflict.map_or(Ok(()), Err), lits)
                    }
                    None => {
                        self.stats.propagations += 1;
                        let outcome = propagate(&self.ctx(), prop, &[(net as u32, value)]);
                        trace.clear();
                        if rounds > 0 {
                            trace.extend(prop.trail_lits());
                        }
                        (outcome, &trace)
                    }
                };
                if let Some(record) = &mut record {
                    record.at[round][lit] = record.push_trace(lit, lits, outcome.err());
                }
                match outcome {
                    Err(_) => {
                        self.unsettable[lit] = true;
                        row_valid[lit] = false;
                        if self.definite[net] {
                            fixes.clear();
                            self.add_constant(prop, net, !value, &mut fixes);
                            fixed_rev += 1;
                            if let Some(record) = &mut record {
                                record.push_event(round, lit, &fixes);
                            }
                            if let Some(replay) = replay.as_deref_mut() {
                                replay.fixed_changed(&fixes, &self.fixed);
                            }
                        }
                    }
                    Ok(()) => {
                        if rounds > 0 {
                            row_valid[lit] = true;
                            row_rev[lit] = fixed_rev;
                            let row = &mut rows[lit * words..(lit + 1) * words];
                            row.fill(0);
                            for &t in lits {
                                row[t as usize / 64] |= 1 << (t % 64);
                            }
                        }
                    }
                }
            }
            if round == rounds {
                break;
            }

            fresh.fill(0);
            let added = self.contrapose(&rows, &row_valid, |premise| {
                fresh[premise / 64] |= 1 << (premise % 64);
            });
            self.stats.rounds = round + 1;
            self.stats.learned_edges += added;
            if let Some(record) = &mut record {
                record
                    .lens
                    .push(self.learned.iter().map(|l| l.len() as u32).collect());
            }
            if added == 0 {
                break;
            }
            if let Some(replay) = replay.as_deref_mut() {
                replay.learned_changed(round, &self.learned);
            }
        }
        self.record = record;
    }

    /// Contraposes the implication rows: L → M learns ¬M → ¬L, kept only
    /// when it is *indirect* (¬M's own row does not already contain ¬L)
    /// and both endpoints are definite nets (see the module docs for why
    /// the contrapositive needs that). Reports each new edge's premise
    /// to `learned_on` and returns the number of edges added.
    fn contrapose(
        &mut self,
        rows: &[u64],
        row_valid: &[bool],
        mut learned_on: impl FnMut(usize),
    ) -> usize {
        let words = row_valid.len().div_ceil(64);
        let mut added = 0usize;
        for lit in 0..row_valid.len() {
            if !row_valid[lit] {
                continue;
            }
            let src = Literal::from_index(lit);
            if !self.definite[src.net.index()] {
                continue;
            }
            for w in 0..words {
                let mut bits = rows[lit * words + w];
                while bits != 0 {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let m = w * 64 + b;
                    if m == lit {
                        continue;
                    }
                    let tgt = Literal::from_index(m);
                    if !self.definite[tgt.net.index()] {
                        continue;
                    }
                    let not_m = m ^ 1;
                    let not_l = lit ^ 1;
                    if !row_valid[not_m] {
                        continue; // premise unsettable or constant
                    }
                    if rows[not_m * words + not_l / 64] & (1 << (not_l % 64)) != 0 {
                        continue; // already directly derivable
                    }
                    let edge = Literal::from_index(not_l);
                    if self.learned[not_m].contains(&edge) {
                        continue;
                    }
                    self.learned[not_m].push(edge);
                    learned_on(not_m);
                    added += 1;
                }
            }
        }
        added
    }

    /// The learning pass before rows were reused: every literal is
    /// propagated again in every round, into a freshly allocated matrix.
    /// Kept as the oracle the incremental pass is checked against.
    #[cfg(test)]
    fn learn_full_rounds(&mut self, prop: &mut Prop, rounds: usize) {
        let n = self.netlist.gate_count();
        let nlit = 2 * n;
        let words = nlit.div_ceil(64);
        for round in 0..=rounds {
            let mut rows: Vec<u64> = if round < rounds {
                vec![0; nlit * words]
            } else {
                Vec::new()
            };
            let mut row_valid = vec![false; nlit];
            for lit in 0..nlit {
                let net = lit / 2;
                let value = lit % 2 == 1;
                if self.unsettable[lit] {
                    continue;
                }
                if let Some(c) = self.fixed[net].to_bool() {
                    if c != value {
                        self.unsettable[lit] = true;
                    }
                    continue;
                }
                self.stats.propagations += 1;
                let outcome = propagate(&self.ctx(), prop, &[(net as u32, value)]);
                match outcome {
                    Err(_) => {
                        self.unsettable[lit] = true;
                        if self.definite[net] {
                            self.add_constant(prop, net, !value, &mut Vec::new());
                        }
                    }
                    Ok(()) => {
                        if round < rounds {
                            row_valid[lit] = true;
                            let row = &mut rows[lit * words..(lit + 1) * words];
                            for &i in &prop.trail {
                                let t = i as usize * 2
                                    + usize::from(prop.val[i as usize] == Logic::One);
                                row[t / 64] |= 1 << (t % 64);
                            }
                        }
                    }
                }
            }
            if round == rounds {
                break;
            }
            let added = self.contrapose(&rows, &row_valid, |_| {});
            self.stats.rounds = round + 1;
            self.stats.learned_edges += added;
            if added == 0 {
                break;
            }
        }
    }

    /// The netlist this engine analyzes.
    #[must_use]
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// Build/learning counters.
    #[must_use]
    pub fn stats(&self) -> LearnStats {
        self.stats
    }

    /// The constant this net is fixed to by the implication closure, if
    /// any. A superset of plain forward constant propagation: it also
    /// catches nets like `AND(a, NOT a)` whose constancy needs reasoning
    /// about both polarities of an input.
    #[must_use]
    pub fn implied_constant(&self, net: GateId) -> Option<bool> {
        self.fixed[net.index()].to_bool()
    }

    /// Whether no complete input assignment can produce `value` at `net`
    /// (in the combinational test view — storage outputs count as
    /// uncontrollable).
    #[must_use]
    pub fn is_unsettable(&self, net: GateId, value: bool) -> bool {
        self.unsettable[net.index() * 2 + usize::from(value)]
    }

    /// Whether `net`'s transitive fanin cone is free of storage elements
    /// (its value is fully determined by the primary inputs).
    #[must_use]
    pub fn is_definite(&self, net: GateId) -> bool {
        self.definite[net.index()]
    }

    /// Learned (indirect) implications whose premise is `net = value`.
    #[must_use]
    pub fn learned_edges(&self, net: GateId, value: bool) -> &[Literal] {
        &self.learned[net.index() * 2 + usize::from(value)]
    }

    /// Propagates `net = value` through the direct rules, the global
    /// constants and the learned store, returning every forced
    /// assignment — or the conflict proving the literal unsettable.
    #[must_use]
    pub fn query(&self, net: GateId, value: bool) -> Implications {
        let mut prop = Prop::new(self.netlist.gate_count());
        let ctx = self.ctx();
        match propagate(&ctx, &mut prop, &[(net.index() as u32, value)]) {
            Err(conflict) => Implications {
                conflict: Some(conflict),
                implied: Vec::new(),
            },
            Ok(()) => Implications {
                conflict: None,
                implied: prop
                    .trail
                    .iter()
                    .map(|&i| Literal {
                        net: GateId::from_index(i as usize),
                        value: prop.val[i as usize] == Logic::One,
                    })
                    .collect(),
            },
        }
    }

    /// Like [`ImplicationEngine::query`], but returns the full
    /// per-net value map (globally-constant nets included) — the form
    /// the per-fault verdict oracle consumes.
    #[cfg(test)]
    pub(crate) fn query_values(&self, net: GateId, value: bool) -> Result<Vec<Logic>, GateId> {
        let mut prop = Prop::new(self.netlist.gate_count());
        let ctx = self.ctx();
        propagate(&ctx, &mut prop, &[(net.index() as u32, value)])?;
        let mut vals = self.fixed.clone();
        for &i in &prop.trail {
            vals[i as usize] = prop.val[i as usize];
        }
        Ok(vals)
    }
}

/// Marks `lit` in a literal bit mask.
fn set_lit(mask: &mut [u64], lit: usize) {
    mask[lit / 64] |= 1 << (lit % 64);
}

/// Marks both literals of `net`.
fn set_net(mask: &mut [u64], net: usize) {
    set_lit(mask, 2 * net);
    set_lit(mask, 2 * net + 1);
}

/// Whether a recorded propagation of `seed` reads something `mask`
/// marks. A propagation reads the gate records and reader lists around
/// the literals it assigned (`lits`), the values of their neighbours,
/// the learned lists of `lits`, and the net it contradicted at, so a
/// mask built by [`Replay`] marks every literal whose presence in
/// `lits` means one of those reads changed.
pub(crate) fn reaches(mask: &[u64], seed: usize, lits: &[u32], conflict: Option<GateId>) -> bool {
    let hit = |l: usize| mask[l / 64] >> (l % 64) & 1 != 0;
    hit(seed)
        || lits.iter().any(|&l| hit(l as usize))
        || conflict.is_some_and(|c| hit(2 * c.index()))
}

/// A trace's values, epoch-stamped, for [`ImplicationEngine::closes`].
pub(crate) struct TraceValues {
    stamp: Vec<u32>,
    val: Vec<Logic>,
    epoch: u32,
    ins: Vec<Logic>,
    forced: Vec<(usize, Logic)>,
}

impl TraceValues {
    /// Empty scratch; it grows to the netlist on first use, so batches
    /// that never check a trace allocate nothing.
    pub(crate) fn new() -> Self {
        TraceValues {
            stamp: Vec::new(),
            val: Vec::new(),
            epoch: 0,
            ins: Vec::new(),
            forced: Vec::new(),
        }
    }

    fn on_trace(&self, i: usize) -> bool {
        self.stamp[i] == self.epoch
    }

    fn load(&mut self, n: usize, lits: &[u32]) {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
            self.val.resize(n, Logic::X);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.fill(0);
            self.epoch = 1;
        }
        for &l in lits {
            let i = l as usize / 2;
            self.stamp[i] = self.epoch;
            self.val[i] = Logic::from(l % 2 == 1);
        }
    }
}

/// No conflict (a consistent propagation).
const NO_CONFLICT: u32 = u32::MAX;

/// One recorded literal propagation.
#[derive(Clone, Copy, Debug)]
struct Trace {
    /// The literal it propagated.
    seed: u32,
    /// `LearnRecord::lits[start..end]`: the literals it assigned.
    start: u32,
    end: u32,
    /// The net where it contradicted itself, or [`NO_CONFLICT`].
    conflict: u32,
}

/// An implied-constant event: after literal `lit` of round `round`, the
/// nets of `LearnRecord::fixes` up to `end` took their constants.
#[derive(Clone, Copy, Debug)]
struct Event {
    round: u32,
    lit: u32,
    end: u32,
}

/// What a learning build read and produced, kept so that a build over
/// an edited netlist can replay it ([`ImplicationEngine::rebase`]).
#[derive(Debug)]
struct LearnRecord {
    /// Implied constants after structural seeding, before round 0.
    seeded: Vec<Logic>,
    /// `at[round][lit]`: 1 + the index of the trace the round used for
    /// `lit` (propagated, copied or reused), 0 if it skipped `lit`.
    at: Vec<Vec<u32>>,
    traces: Vec<Trace>,
    /// The literals of every trace, back to back.
    lits: Vec<u32>,
    /// `lens[round][lit]`: the length of `lit`'s learned list that
    /// round `round + 1` read.
    lens: Vec<Vec<u32>>,
    /// Implied-constant events in build order.
    events: Vec<Event>,
    /// The nets the events fixed, back to back, with their constants.
    fixes: Vec<(u32, Logic)>,
}

impl LearnRecord {
    fn new(seeded: &[Logic]) -> Self {
        LearnRecord {
            seeded: seeded.to_vec(),
            at: Vec::new(),
            traces: Vec::new(),
            lits: Vec::new(),
            lens: Vec::new(),
            events: Vec::new(),
            fixes: Vec::new(),
        }
    }

    /// Appends `seed`'s trace and returns its `at` entry.
    fn push_trace(&mut self, seed: usize, lits: &[u32], conflict: Option<GateId>) -> u32 {
        let start = self.lits.len() as u32;
        self.lits.extend_from_slice(lits);
        self.traces.push(Trace {
            seed: seed as u32,
            start,
            end: self.lits.len() as u32,
            conflict: conflict.map_or(NO_CONFLICT, |c| c.index() as u32),
        });
        self.traces.len() as u32
    }

    fn push_event(&mut self, round: usize, lit: usize, fixes: &[(u32, Logic)]) {
        self.fixes.extend_from_slice(fixes);
        self.events.push(Event {
            round: round as u32,
            lit: lit as u32,
            end: self.fixes.len() as u32,
        });
    }
}

/// A key-to-items table in one pool: `items[start[key]..start[key + 1]]`.
#[derive(Clone, Debug, Default)]
pub(crate) struct Csr {
    start: Vec<u32>,
    items: Vec<u32>,
}

impl Csr {
    /// Builds the table over keys `0..keys` from the `(key, item)` pairs
    /// `pairs` reports (it is called twice: once to count, once to
    /// fill); each key's items keep report order.
    pub(crate) fn build(keys: usize, pairs: impl Fn(&mut dyn FnMut(usize, u32))) -> Csr {
        let mut start = vec![0u32; keys + 1];
        pairs(&mut |key, _| start[key + 1] += 1);
        for k in 0..keys {
            start[k + 1] += start[k];
        }
        let mut fill = start.clone();
        let mut items = vec![0u32; start[keys] as usize];
        pairs(&mut |key, item| {
            items[fill[key] as usize] = item;
            fill[key] += 1;
        });
        Csr { start, items }
    }

    /// The items of `key`; none for a key past the table.
    pub(crate) fn get(&self, key: usize) -> &[u32] {
        match (self.start.get(key), self.start.get(key + 1)) {
            (Some(&a), Some(&b)) => &self.items[a as usize..b as usize],
            _ => &[],
        }
    }
}

/// What an edit changed against a rebased engine's prior, kept for
/// verdict reuse ([`ImplicationEngine::untestable_count_rebased`]).
#[derive(Debug)]
pub(crate) struct RebaseDiff {
    /// The prior's serial.
    pub(crate) prior: u64,
    /// Prior gates whose kind or inputs changed, in id order.
    pub(crate) rewritten: Vec<GateId>,
    /// Prior literals whose unsettable flag changed.
    pub(crate) unsettable: Vec<u32>,
    /// A prior propagation over the final stores repeats if [`reaches`]
    /// finds nothing in this mask, and, when it finds something in
    /// `closure`, the propagation was consistent and
    /// [`ImplicationEngine::closes`] holds for `known`.
    pub(crate) traces: Vec<u64>,
    pub(crate) closure: Vec<u64>,
    pub(crate) known: Vec<u32>,
    /// Nets whose gate record, reader list or output flag changed
    /// (appended nets included): what a walk reads of a net it stands
    /// on or passes.
    pub(crate) walks: Vec<bool>,
    /// Nets whose implied constant or storage flag changed: what a walk
    /// reads of a side input.
    pub(crate) sides: Vec<bool>,
}

/// A prior engine's [`LearnRecord`], replayed beside a build over an
/// edited netlist. It keeps the literal mask of everything the edit
/// changed that a prior propagation could have read at the current
/// point of the build:
///
/// * S: gates whose kind or inputs changed, with their prior inputs
///   (a propagation queues a gate when it assigns the gate or an
///   input), and F: nets whose reader list changed;
/// * V: nets whose implied constant or definiteness differs between
///   the prior and the edited build at this point, expanded to
///   `{x} ∪ inputs(x) ∪ readers(x) ∪ inputs(readers(x))` on the prior
///   netlist plus the premises of learned edges into `x`;
/// * L: literals whose learned list differs this round.
///
/// Gates rewritten into constants are *dead*: a prior propagation that
/// queued one without assigning it, while the prior did not know its
/// value, derived nothing there, so only the dead net itself is masked
/// and its lost readers are not a reader-list change. Nets of V whose
/// constant only the edited build knows go to `closure` instead of the
/// mask; a trace that reaches them is checked by
/// [`ImplicationEngine::closes`].
struct Replay<'p> {
    prior: &'p ImplicationEngine<'p>,
    record: &'p LearnRecord,
    /// Prior gate count: only prior nets can appear in a prior trace.
    prior_n: usize,
    /// Prior gates whose kind or inputs changed, in id order.
    rewritten: Vec<GateId>,
    structure: Vec<u64>,
    learned: Vec<u64>,
    values: Vec<u64>,
    /// `structure | learned | values`.
    mask: Vec<u64>,
    /// S, F and the changed output flags, net by net.
    walks: Vec<bool>,
    /// Nets whose storage flag changed.
    storage: Vec<bool>,
    /// Dead gates: rewritten into constants.
    dead: Vec<bool>,
    /// The prior's implied constants at this point of the replay.
    fixed: Vec<Logic>,
    /// The prior's next event to apply.
    next: usize,
    /// Definiteness differs, net by net.
    definite_differs: Vec<bool>,
    /// V, net by net.
    differ: Vec<bool>,
    /// The nets of V whose constant only the edited build knows, and
    /// their list.
    known: Vec<bool>,
    known_nets: Vec<u32>,
    /// Literals whose presence in a trace means the propagation queued a
    /// gate that reads or drives a net of `known_nets`.
    closure: Vec<u64>,
    /// Scratch for [`ImplicationEngine::closes`].
    trace_values: TraceValues,
    /// `values` no longer matches `differ`.
    stale: bool,
    /// Every literal `mask` or `closure` has marked so far.
    seen: Vec<u64>,
    /// By `at` entry: whether the trace contains a literal of `seen`.
    /// A trace that does not repeats without a scan.
    reached: Vec<bool>,
}

impl<'p> Replay<'p> {
    /// Starts the replay of the prior over `edited`, which differs from
    /// it by `diff`; `None` when there is nothing to replay (no record,
    /// no learning on `edited`, or `edited` has fewer gates than the
    /// prior and so is not an append-only evolution of its arena).
    fn new(prior: &'p ImplicationEngine<'p>, edited: &Netlist, diff: &ArenaDiff) -> Option<Self> {
        let record = prior.record.as_ref()?;
        if edited.gate_count() > LEARN_GATE_LIMIT
            || edited.gate_count() < prior.netlist.gate_count()
        {
            return None;
        }
        debug_assert_eq!(
            prior.netlist.arena_diff(edited).as_ref(),
            Some(diff),
            "the diff must be the edit's arena diff"
        );
        let n = edited.gate_count();
        let words = (2 * n).div_ceil(64);
        let mut structure = vec![0u64; words];
        let mut walks = vec![false; n];
        let mut storage = vec![false; n];
        let mut dead = vec![false; n];
        for &g in &diff.rewritten {
            walks[g.index()] = true;
            storage[g.index()] =
                prior.netlist.gate(g).kind().is_storage() != edited.gate(g).kind().is_storage();
            set_net(&mut structure, g.index());
            dead[g.index()] = matches!(edited.gate(g).kind(), GateKind::Const0 | GateKind::Const1);
            if !dead[g.index()] {
                for &s in prior.netlist.gate(g).inputs() {
                    set_net(&mut structure, s.index());
                }
            }
        }
        for &g in diff.appended.iter().chain(&diff.outputs) {
            walks[g.index()] = true;
        }
        let prior_n = prior.netlist.gate_count();
        Some(Replay {
            prior,
            record,
            prior_n,
            rewritten: diff.rewritten.clone(),
            structure,
            learned: vec![0; words],
            values: vec![0; words],
            mask: vec![0; words],
            walks,
            storage,
            dead,
            fixed: record.seeded.clone(),
            next: 0,
            definite_differs: vec![false; prior_n],
            differ: vec![false; prior_n],
            known: vec![false; prior_n],
            known_nets: Vec::new(),
            closure: vec![0; words],
            trace_values: TraceValues::new(),
            stale: true,
            seen: vec![0; words],
            reached: vec![false; record.traces.len() + 1],
        })
    }

    /// Finishes the structural diff against the edited build's fanout
    /// and definiteness, and seeds V from its structural constants.
    fn start(&mut self, edited: &ImplicationEngine<'_>) {
        let (prior, now) = (self.prior.readers(), edited.readers());
        for x in 0..self.prior_n {
            let live = prior[x].iter().filter(|(r, _)| !self.dead[r.index()]);
            if !live.eq(&now[x]) {
                self.walks[x] = true;
                set_net(&mut self.structure, x);
            }
            self.definite_differs[x] = self.prior.definite[x] != edited.definite[x];
            self.refresh(x, &edited.fixed);
        }
        self.rebuild();
    }

    /// Re-derives whether net `x` is in V, and whether only the edited
    /// build knows its constant.
    fn refresh(&mut self, x: usize, fixed: &[Logic]) {
        let d = self.definite_differs[x] || self.fixed[x] != fixed[x];
        let k = !self.definite_differs[x] && !self.fixed[x].is_known() && fixed[x].is_known();
        if d != self.differ[x] || k != self.known[x] {
            self.differ[x] = d;
            self.known[x] = k;
            self.stale = true;
        }
    }

    /// Brings the prior's constants to the point just before literal
    /// `lit` of round `round`.
    fn advance(&mut self, round: usize, lit: usize, fixed: &[Logic]) {
        let record = self.record;
        while let Some(e) = record.events.get(self.next) {
            if (e.round as usize, e.lit as usize) >= (round, lit) {
                break;
            }
            let from = match self.next {
                0 => 0,
                k => record.events[k - 1].end as usize,
            };
            for &(net, v) in &record.fixes[from..e.end as usize] {
                self.fixed[net as usize] = v;
                self.refresh(net as usize, fixed);
                // A dead gate the prior knows the value of is no longer
                // inert where the prior evaluates it.
                self.stale |= self.dead[net as usize];
            }
            self.next += 1;
        }
        if self.stale {
            self.rebuild();
        }
    }

    /// The edited build fixed `fixes`.
    fn fixed_changed(&mut self, fixes: &[(u32, Logic)], fixed: &[Logic]) {
        for &(net, _) in fixes {
            if (net as usize) < self.prior_n {
                self.refresh(net as usize, fixed);
            }
        }
    }

    /// The edited build finished round `round`'s contrapose: mark the
    /// literals whose learned list differs from the one the prior's
    /// round `round + 1` read.
    fn learned_changed(&mut self, round: usize, learned: &[Vec<Literal>]) {
        self.learned.fill(0);
        if let Some(lens) = self.record.lens.get(round) {
            for (lit, &len) in lens.iter().enumerate() {
                if self.prior.learned[lit][..len as usize] != learned[lit][..] {
                    set_lit(&mut self.learned, lit);
                }
            }
        }
        self.combine();
    }

    /// Rebuilds the V part of the mask from `differ`.
    fn rebuild(&mut self) {
        let netlist: &Netlist = &self.prior.netlist;
        let fanout = self.prior.readers();
        let premises = self.prior.premises();
        self.values.fill(0);
        self.closure.fill(0);
        self.known_nets.clear();
        for x in 0..self.prior_n {
            let readers = &fanout[x];
            let inputs = netlist.gate(GateId::from_index(x)).inputs();
            if self.dead[x] && self.fixed[x].is_known() {
                // Where the prior evaluates a dead gate it knows the value
                // of, backward implication can force its inputs.
                for &s in inputs {
                    set_net(&mut self.values, s.index());
                }
            }
            if !self.differ[x] {
                continue;
            }
            set_net(&mut self.values, x);
            // A net only the edited build knows the constant of is read
            // by the gates around it; whether those reads change the
            // outcome is decided per trace ([`ImplicationEngine::closes`]).
            let reads = if self.known[x] {
                self.known_nets.push(x as u32);
                &mut self.closure
            } else {
                for &p in premises.get(x) {
                    set_lit(&mut self.values, p as usize);
                }
                &mut self.values
            };
            if !self.dead[x] {
                for &s in inputs {
                    set_net(reads, s.index());
                }
            }
            for &(r, _) in readers.iter().filter(|(r, _)| !self.dead[r.index()]) {
                set_net(reads, r.index());
                for &s in netlist.gate(r).inputs() {
                    set_net(reads, s.index());
                }
            }
        }
        self.stale = false;
        self.combine();
    }

    /// Rebuilds the mask from its parts and marks the traces its new
    /// literals, or the closure's, reach.
    fn combine(&mut self) {
        for (w, m) in self.mask.iter_mut().enumerate() {
            *m = self.structure[w] | self.learned[w] | self.values[w];
        }
        let slots = self.prior.slots();
        for (w, seen) in self.seen.iter_mut().enumerate() {
            let mut new = (self.mask[w] | self.closure[w]) & !*seen;
            *seen |= new;
            while new != 0 {
                for &k in slots.get(w * 64 + new.trailing_zeros() as usize) {
                    self.reached[k as usize] = true;
                }
                new &= new - 1;
            }
        }
    }

    /// The prior's outcome for `lit` in `round` — the literals it
    /// assigned and its conflict — if it provably repeats in `edited`.
    fn copyable(
        &mut self,
        round: usize,
        lit: usize,
        edited: &ImplicationEngine<'_>,
    ) -> Option<(&'p [u32], Option<GateId>)> {
        let record = self.record;
        let k = *record.at.get(round)?.get(lit)?;
        let t = record.traces.get((k as usize).checked_sub(1)?)?;
        let lits = &record.lits[t.start as usize..t.end as usize];
        let conflict = (t.conflict != NO_CONFLICT).then(|| GateId::from_index(t.conflict as usize));
        if !self.reached[k as usize] {
            return Some((lits, conflict));
        }
        let repeats = !reaches(&self.mask, lit, lits, conflict)
            && (!reaches(&self.closure, lit, lits, conflict)
                || conflict.is_none()
                    && edited.closes(&self.known_nets, lits, &mut self.trace_values));
        repeats.then_some((lits, conflict))
    }

    /// The diff between the two finished engines, for verdict reuse.
    fn finish(mut self, edited: &ImplicationEngine<'_>) -> RebaseDiff {
        let prior = self.prior;
        self.fixed.copy_from_slice(&prior.fixed);
        for x in 0..self.prior_n {
            self.refresh(x, &edited.fixed);
        }
        self.learned.fill(0);
        for lit in 0..2 * self.prior_n {
            if prior.learned[lit] != edited.learned[lit] {
                set_lit(&mut self.learned, lit);
            }
        }
        self.rebuild();
        let mut sides = self.storage;
        for (x, side) in sides.iter_mut().enumerate().take(self.prior_n) {
            *side |= self.fixed[x] != edited.fixed[x];
        }
        let unsettable = (0..2 * self.prior_n)
            .filter(|&l| prior.unsettable[l] != edited.unsettable[l])
            .map(|l| l as u32)
            .collect();
        RebaseDiff {
            prior: prior.serial,
            rewritten: self.rewritten,
            unsettable,
            traces: self.mask,
            closure: self.closure,
            known: self.known_nets,
            walks: self.walks,
            sides,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dft_netlist::circuits::{random_combinational, random_sequential};
    use dft_netlist::Netlist;
    use proptest::prelude::*;

    /// The production build with `rounds` learning rounds at most.
    fn with_rounds(n: &Netlist, rounds: usize) -> ImplicationEngine<'_> {
        ImplicationEngine::build_using(Cow::Borrowed(n), rounds, |e, prop, r| {
            e.learn(prop, r, None)
        })
    }

    /// Everything learning produces, for comparing two passes.
    fn learned_state(
        e: &ImplicationEngine<'_>,
    ) -> (Vec<Vec<Literal>>, Vec<bool>, Vec<Logic>, [usize; 4]) {
        let s = e.stats;
        (
            e.learned.clone(),
            e.unsettable.clone(),
            e.fixed.clone(),
            [
                s.rounds,
                s.learned_edges,
                s.unsettable_literals,
                s.implied_constants,
            ],
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn incremental_learning_equals_full_rounds(
            seed in any::<u64>(),
            inputs in 2usize..=10,
            gates in 4usize..=120,
            rounds in 0usize..=5,
            sequential in any::<bool>(),
        ) {
            let n = if sequential {
                random_sequential(inputs.min(4), 3, gates / 8 + 1, 2, seed)
            } else {
                random_combinational(inputs, gates, seed)
            };
            let fast = with_rounds(&n, rounds);
            let full = ImplicationEngine::build_using(
                Cow::Borrowed(&n),
                rounds,
                ImplicationEngine::learn_full_rounds,
            );
            prop_assert_eq!(learned_state(&fast), learned_state(&full));
            // Every literal the full pass propagated was either
            // propagated again or reused.
            prop_assert_eq!(
                fast.stats.propagations + fast.stats.rows_reused,
                full.stats.propagations
            );
            prop_assert_eq!(full.stats.rows_reused, 0);
        }
    }

    #[test]
    fn later_rounds_reuse_rows() {
        let n = random_combinational(15, 140, 6);
        let e = ImplicationEngine::new(&n);
        assert!(e.stats().rounds >= 2, "{:?}", e.stats());
        assert!(e.stats().rows_reused > 0, "{:?}", e.stats());
    }

    #[test]
    fn direct_implications_flow_both_ways() {
        // y = AND(a, b): y=1 forces a=1 and b=1; a=0 forces y=0.
        let mut n = Netlist::new("and2");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let y = n.add_gate(GateKind::And, &[a, b]).unwrap();
        n.mark_output(y, "y").unwrap();
        let e = ImplicationEngine::new(&n);
        let q = e.query(y, true);
        assert!(q.consistent());
        assert!(q.implied.contains(&Literal {
            net: a,
            value: true
        }));
        assert!(q.implied.contains(&Literal {
            net: b,
            value: true
        }));
        let q = e.query(a, false);
        assert!(q.implied.contains(&Literal {
            net: y,
            value: false
        }));
    }

    #[test]
    fn contradictory_net_is_implied_constant() {
        // z = AND(a, NOT a): plain constant propagation sees X, the
        // implication closure proves z = 0.
        let mut n = Netlist::new("contradiction");
        let a = n.add_input("a");
        let na = n.add_gate(GateKind::Not, &[a]).unwrap();
        let z = n.add_gate(GateKind::And, &[a, na]).unwrap();
        n.mark_output(z, "z").unwrap();
        let e = ImplicationEngine::new(&n);
        assert!(e.is_unsettable(z, true));
        assert_eq!(e.implied_constant(z), Some(false));
        assert_eq!(e.implied_constant(a), None);
        assert!(e.query(z, true).conflict.is_some());
    }

    #[test]
    fn learning_finds_indirect_implication() {
        // y = OR(AND(a, b), AND(a, c)): no direct rule derives a from
        // y=1, but a=0 zeroes both AND gates, so learning must record
        // y=1 → a=1.
        let mut n = Netlist::new("socrates");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let g = n.add_gate(GateKind::And, &[a, b]).unwrap();
        let h = n.add_gate(GateKind::And, &[a, c]).unwrap();
        let y = n.add_gate(GateKind::Or, &[g, h]).unwrap();
        n.mark_output(y, "y").unwrap();
        let e = ImplicationEngine::new(&n);
        assert!(e.stats().learned_edges > 0, "expected learned edges");
        let q = e.query(y, true);
        assert!(q.consistent());
        assert!(
            q.implied.contains(&Literal {
                net: a,
                value: true
            }),
            "learned y=1 → a=1 must fire during propagation: {:?}",
            q.implied
        );
        // Direct-only engine misses it (this is what makes it indirect).
        let direct = with_rounds(&n, 0);
        let q = direct.query(y, true);
        assert!(!q.implied.contains(&Literal {
            net: a,
            value: true
        }));
    }

    #[test]
    fn dff_outputs_are_unsettable() {
        let mut n = Netlist::new("seq");
        let a = n.add_input("a");
        let d = n.add_dff(a).unwrap();
        let y = n.add_gate(GateKind::And, &[a, d]).unwrap();
        n.mark_output(y, "y").unwrap();
        let e = ImplicationEngine::new(&n);
        assert!(e.is_unsettable(d, false));
        assert!(e.is_unsettable(d, true));
        assert!(!e.is_definite(y));
        assert!(e.is_definite(a));
        // Requiring y = 1 needs the Dff at 1: contradiction.
        assert!(e.query(y, true).conflict.is_some());
        // y = 0 is reachable (a = 0).
        assert!(e.query(y, false).consistent());
    }

    #[test]
    fn structural_constants_are_seeded() {
        let mut n = Netlist::new("consts");
        let a = n.add_input("a");
        let c0 = n.add_const(false);
        let y = n.add_gate(GateKind::And, &[a, c0]).unwrap();
        n.mark_output(y, "y").unwrap();
        let e = ImplicationEngine::new(&n);
        assert_eq!(e.implied_constant(c0), Some(false));
        assert_eq!(e.implied_constant(y), Some(false));
        assert!(e.is_unsettable(y, true));
    }

    #[test]
    fn clean_logic_learns_nothing_unsettable() {
        let n = dft_netlist::circuits::c17();
        let e = ImplicationEngine::new(&n);
        for id in n.ids() {
            assert!(!e.is_unsettable(id, false), "c17 has no unsettable nets");
            assert!(!e.is_unsettable(id, true), "c17 has no unsettable nets");
            assert_eq!(e.implied_constant(id), None);
        }
    }
}
