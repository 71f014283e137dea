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

use dft_netlist::{GateId, GateKind, Netlist};
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

/// Tuning knobs for [`ImplicationEngine::with_options`].
///
/// `#[non_exhaustive]`: construct via [`Default`] and the `with_*`
/// builders so new knobs can be added without breaking downstream
/// crates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub struct ImplicOptions {
    /// Maximum assign–propagate–contrapose rounds. Learning stops early
    /// once a round adds no edge; 0 disables learning entirely (direct
    /// implications only).
    pub learning_rounds: usize,
    /// Skip learning on netlists with more gates than this (the learning
    /// pass keeps a dense implication matrix of `(2·gates)²` bits while
    /// it runs).
    pub learn_gate_limit: usize,
}

impl Default for ImplicOptions {
    fn default() -> Self {
        ImplicOptions {
            learning_rounds: 4,
            learn_gate_limit: 4096,
        }
    }
}

impl ImplicOptions {
    /// Defaults (same as [`Default`], spelled for builder chains).
    #[must_use]
    pub fn new() -> Self {
        ImplicOptions::default()
    }

    /// Sets [`ImplicOptions::learning_rounds`].
    #[must_use]
    pub fn with_learning_rounds(mut self, learning_rounds: usize) -> Self {
        self.learning_rounds = learning_rounds;
        self
    }

    /// Sets [`ImplicOptions::learn_gate_limit`].
    #[must_use]
    pub fn with_learn_gate_limit(mut self, learn_gate_limit: usize) -> Self {
        self.learn_gate_limit = learn_gate_limit;
        self
    }
}

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
    /// provably repeats (see [`ImplicationEngine::with_options`]).
    pub rows_reused: usize,
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
    fanout: &'a [Vec<(GateId, u8)>],
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
    pub(crate) fanout: Vec<Vec<(GateId, u8)>>,
    pub(crate) is_po: Vec<bool>,
    definite: Vec<bool>,
    pub(crate) fixed: Vec<Logic>,
    unsettable: Vec<bool>,
    learned: Vec<Vec<Literal>>,
    stats: LearnStats,
}

impl ImplicationEngine<'static> {
    /// [`ImplicationEngine::with_options`] over a netlist the engine takes
    /// ownership of, so the engine carries no borrow.
    #[must_use]
    pub fn from_owned(netlist: Netlist, options: ImplicOptions) -> Self {
        Self::build(Cow::Owned(netlist), options)
    }
}

impl<'n> ImplicationEngine<'n> {
    /// Builds the engine with default options (see [`ImplicOptions`]).
    #[must_use]
    pub fn new(netlist: &'n Netlist) -> Self {
        Self::with_options(netlist, ImplicOptions::default())
    }

    /// Builds the engine: seeds global constants, then runs
    /// assign–propagate–contrapose learning rounds until no round adds
    /// an edge (or `options.learning_rounds` is exhausted).
    ///
    /// Rounds are incremental. A literal's propagation reads only the
    /// global constants and the learned edges whose premises it assigns,
    /// so it repeats its previous round exactly when no constant was
    /// added since its row was computed and no literal on its previous
    /// trail gained an edge in the round just finished. Such rows are
    /// kept rather than propagated again ([`LearnStats::rows_reused`]).
    #[must_use]
    pub fn with_options(netlist: &'n Netlist, options: ImplicOptions) -> Self {
        Self::with_options_observed(netlist, options, None)
    }

    /// [`ImplicationEngine::with_options`] feeding telemetry to an
    /// optional collector — the uniform observed entry point.
    ///
    /// Opens an `implic.learn` span and flushes the [`LearnStats`]
    /// counters once the build completes (`rounds`, `learned_edges`,
    /// `unsettable_literals`, `implied_constants`, `propagations`,
    /// `rows_reused`, plus `gates` for scale); the legacy
    /// [`ImplicationEngine::stats`] view is unchanged.
    #[must_use]
    pub fn with_options_observed(
        netlist: &'n Netlist,
        options: ImplicOptions,
        obs: Option<&mut dyn Collector>,
    ) -> Self {
        let mut obs = Obs::new(obs);
        obs.enter("implic.learn");
        let engine = Self::build(Cow::Borrowed(netlist), options);
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
        obs.exit();
        engine
    }

    fn build(netlist: Cow<'n, Netlist>, options: ImplicOptions) -> Self {
        Self::build_using(netlist, options, Self::learn)
    }

    /// [`ImplicationEngine::build`] with the learning pass supplied, so
    /// tests can build the same engine through a reference pass.
    fn build_using(
        netlist: Cow<'n, Netlist>,
        options: ImplicOptions,
        learn: fn(&mut Self, &mut Prop, usize),
    ) -> Self {
        let n = netlist.gate_count();
        let fanout = netlist.fanout_map();
        let mut is_po = vec![false; n];
        for &(g, _) in netlist.primary_outputs() {
            is_po[g.index()] = true;
        }

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
            fanout,
            is_po,
            definite,
            fixed: vec![Logic::X; n],
            unsettable: vec![false; 2 * n],
            learned: vec![Vec::new(); 2 * n],
            stats: LearnStats::default(),
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

        if n <= options.learn_gate_limit {
            learn(&mut engine, &mut prop, options.learning_rounds);
        } else {
            // Still harvest unsettables/constants from one direct round.
            learn(&mut engine, &mut prop, 0);
        }

        engine.stats.unsettable_literals = engine.unsettable.iter().filter(|&&u| u).count();
        engine.stats.implied_constants = engine.fixed.iter().filter(|v| v.is_known()).count();
        engine
    }

    pub(crate) fn ctx(&self) -> Ctx<'_> {
        Ctx {
            netlist: &self.netlist,
            fanout: &self.fanout,
            fixed: &self.fixed,
            definite: &self.definite,
            learned: &self.learned,
        }
    }

    fn seed_structural_constants(&mut self, prop: &mut Prop) {
        let ctx = Ctx {
            netlist: &self.netlist,
            fanout: &self.fanout,
            fixed: &self.fixed,
            definite: &self.definite,
            learned: &self.learned,
        };
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
    /// defaults.
    fn add_constant(&mut self, prop: &mut Prop, net: usize, value: bool) {
        if self.fixed[net].is_known() {
            return;
        }
        self.stats.propagations += 1;
        let ctx = Ctx {
            netlist: &self.netlist,
            fanout: &self.fanout,
            fixed: &self.fixed,
            definite: &self.definite,
            learned: &self.learned,
        };
        if propagate(&ctx, prop, &[(net as u32, value)]).is_ok() {
            for &i in &prop.trail {
                self.fixed[i as usize] = prop.val[i as usize];
            }
        } else {
            // Both polarities contradict — only reachable on degenerate
            // inputs; record the single fact and move on.
            self.fixed[net] = Logic::from(value);
        }
    }

    fn learn(&mut self, prop: &mut Prop, rounds: usize) {
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

        for round in 0..=rounds {
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
                    // Constant literals imply nothing worth learning.
                    row_valid[lit] = false;
                    continue;
                }
                if row_valid[lit] && row_rev[lit] == fixed_rev {
                    let row = &rows[lit * words..(lit + 1) * words];
                    if row.iter().zip(&fresh).all(|(r, f)| r & f == 0) {
                        self.stats.rows_reused += 1;
                        continue;
                    }
                }
                self.stats.propagations += 1;
                let outcome = propagate(&self.ctx(), prop, &[(net as u32, value)]);
                match outcome {
                    Err(_) => {
                        self.unsettable[lit] = true;
                        row_valid[lit] = false;
                        if self.definite[net] {
                            self.add_constant(prop, net, !value);
                            fixed_rev += 1;
                        }
                    }
                    Ok(()) => {
                        if rounds > 0 {
                            row_valid[lit] = true;
                            row_rev[lit] = fixed_rev;
                            let row = &mut rows[lit * words..(lit + 1) * words];
                            row.fill(0);
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

            fresh.fill(0);
            let added = self.contrapose(&rows, &row_valid, |premise| {
                fresh[premise / 64] |= 1 << (premise % 64);
            });
            self.stats.rounds = round + 1;
            self.stats.learned_edges += added;
            if added == 0 {
                break;
            }
        }
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
                            self.add_constant(prop, net, !value);
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

#[cfg(test)]
mod tests {
    use super::*;
    use dft_netlist::circuits::{random_combinational, random_sequential};
    use dft_netlist::Netlist;
    use proptest::prelude::*;

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
            let options = ImplicOptions::new().with_learning_rounds(rounds);
            let fast = ImplicationEngine::with_options(&n, options);
            let full = ImplicationEngine::build_using(
                Cow::Borrowed(&n),
                options,
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
        let direct = ImplicationEngine::with_options(
            &n,
            ImplicOptions {
                learning_rounds: 0,
                ..ImplicOptions::default()
            },
        );
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
