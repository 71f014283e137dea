//! FIRE-style static untestability verdicts.
//!
//! A single stuck-at fault needs two things from a test: *excitation*
//! (the activation net driven to the complement of the stuck value in
//! the good machine) and *observation* (a sensitized path carrying the
//! difference to a primary output). The implication engine can refute
//! either statically:
//!
//! * **Unexcitable** — the excitation literal is unsettable (its
//!   propagation contradicts itself, or the net is an uncontrollable
//!   storage output). No assignment excites the fault.
//! * **Unobservable** — in *every* assignment that excites the fault,
//!   each path from the fault site to an output is cut somewhere: a
//!   side input outside the fault's fanout cone is implied to the
//!   gate's controlling value (the gate's output is then identical in
//!   the good and faulty machines), the side input is an uncontrollable
//!   storage output (`X` in both machines, so no *known* difference can
//!   leave the gate), or the path runs into a storage element.
//!
//! Both directions are sound over the combinational test view — every
//! fault flagged here is also `Untestable` for PODEM and the
//! D-algorithm, which is cross-checked by proptests. Neither direction
//! is complete: search still proves redundancies that need case splits
//! rather than implication chains.

use std::ops::Range;
use std::sync::OnceLock;

use dft_netlist::{GateId, GateKind, Pin};
use dft_sim::Logic;

use crate::engine::{propagate, reaches, Csr, ImplicationEngine, Prop, RebaseDiff, TraceValues};

/// Why a fault is statically untestable (the diagnostic witness carried
/// into lint findings and prefilter reports).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UntestableReason {
    /// The activation net can never take the value that excites the
    /// fault.
    Unexcitable {
        /// The net that would need to be driven.
        net: GateId,
        /// The value excitation requires (complement of the stuck
        /// value).
        required: bool,
        /// Where the implication closure contradicted itself while
        /// assuming `net = required` (equal to `net` itself when the
        /// net is an uncontrollable storage output or implied
        /// constant).
        conflict: GateId,
    },
    /// The fault is excitable, but its effect provably cannot reach any
    /// primary output.
    Unobservable {
        /// The gate whose output carries the (unobservable) effect.
        origin: GateId,
    },
}

impl std::fmt::Display for UntestableReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UntestableReason::Unexcitable {
                net,
                required,
                conflict,
            } => {
                if conflict == net {
                    write!(
                        f,
                        "activation net g{} cannot be driven to {}",
                        net.index(),
                        u8::from(*required)
                    )
                } else {
                    write!(
                        f,
                        "assuming g{}={} implies a contradiction at g{}",
                        net.index(),
                        u8::from(*required),
                        conflict.index()
                    )
                }
            }
            UntestableReason::Unobservable { origin } => write!(
                f,
                "every sensitized path from g{} to an output is statically blocked",
                origin.index()
            ),
        }
    }
}

/// Epoch-stamped marks for the observation walk: a net is in the
/// current fault's cone (reached by its effect) iff its `cone` (`reach`)
/// stamp equals `epoch`, so no fault clears anything.
pub(crate) struct Marks {
    cone: Vec<u32>,
    reach: Vec<u32>,
    pub(crate) epoch: u32,
    stack: Vec<GateId>,
    cone_stack: Vec<GateId>,
}

impl Marks {
    fn new(n: usize) -> Self {
        Marks {
            cone: vec![0; n],
            reach: vec![0; n],
            epoch: 0,
            stack: Vec::new(),
            cone_stack: Vec::new(),
        }
    }

    fn begin(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // One lap of the u32 odometer: stale stamps could now collide.
            self.cone.fill(0);
            self.reach.fill(0);
            self.epoch = 1;
        }
        self.stack.clear();
    }
}

/// Scratch for one verdict batch, reused across its literals and faults.
pub(crate) struct VerdictScratch {
    pub(crate) prop: Prop,
    pub(crate) marks: Marks,
    values: TraceValues,
}

impl VerdictScratch {
    pub(crate) fn new(n: usize) -> Self {
        VerdictScratch {
            prop: Prop::new(n),
            marks: Marks::new(n),
            values: TraceValues::new(),
        }
    }
}

/// Where an observation walk reports what it read. A walk reads nets
/// in two ways:
///
/// * a *node* — a net the walk stands on or a gate it considers
///   passing: its reader list, output flag and gate record;
/// * a *side* — a side input that may block: only whether it is a
///   storage element and its implied value.
///
/// The split matters for folds: a net the prior already proved
/// constant becomes a `Const` gate, so its gate record changes, but as a
/// side input it reads the same as before.
trait Footprint {
    /// Starts the footprint of the next fault.
    fn begin(&mut self);
    fn node(&mut self, net: GateId);
    fn side(&mut self, net: GateId);
    /// The walk queued `to` as a reader of `from`.
    fn step(&mut self, from: GateId, to: GateId);
    /// The cone walk added `to`, a reader of `from`, to the origin's
    /// structural cone.
    fn cone_step(&mut self, from: GateId, to: GateId);
    /// The walk from `origin` reached the output `po`: narrow the
    /// footprint to the witness path if that proves observability alone.
    fn observed(
        &mut self,
        engine: &ImplicationEngine<'_>,
        origin: GateId,
        pin: Pin,
        po: GateId,
        value: &dyn Fn(usize) -> Logic,
    );
    /// Appends the fault's footprint to `record`'s pools; returns the
    /// length of its witness path, if it is a witness.
    fn flush(&self, record: &mut VerdictRecord) -> Option<u32>;
}

/// The plain batch keeps no footprint.
impl Footprint for () {
    fn begin(&mut self) {}

    #[inline(always)]
    fn node(&mut self, _: GateId) {}

    #[inline(always)]
    fn side(&mut self, _: GateId) {}

    #[inline(always)]
    fn step(&mut self, _: GateId, _: GateId) {}

    #[inline(always)]
    fn cone_step(&mut self, _: GateId, _: GateId) {}

    fn observed(
        &mut self,
        _: &ImplicationEngine<'_>,
        _: GateId,
        _: Pin,
        _: GateId,
        _: &dyn Fn(usize) -> Logic,
    ) {
    }

    fn flush(&self, _: &mut VerdictRecord) -> Option<u32> {
        None
    }
}

/// A deduplicated net set, epoch-stamped like [`Marks`].
struct NetSet {
    seen: Vec<u32>,
    nets: Vec<u32>,
}

impl NetSet {
    fn insert(&mut self, net: GateId, epoch: u32) {
        let i = net.index();
        if self.seen[i] != epoch {
            self.seen[i] = epoch;
            self.nets.push(i as u32);
        }
    }
}

/// The node and side footprints of one fault, plus the walk's and the
/// cone walk's parent links for witness paths.
struct Footprints {
    epoch: u32,
    nodes: NetSet,
    sides: NetSet,
    parent: Vec<GateId>,
    /// `cone_parent[x]` links `x` towards the origin when `cone[x]` holds
    /// the current epoch.
    cone: Vec<u32>,
    cone_parent: Vec<GateId>,
    /// The witness's blocking side inputs that lie in the origin's cone.
    exempt: Vec<u32>,
    /// `nodes` holds a witness — its path's `path_len` gates first, then
    /// the cone paths of `exempt` — rather than a walk's reads.
    witness: bool,
    path_len: u32,
}

impl Footprints {
    fn new(n: usize) -> Self {
        let set = || NetSet {
            seen: vec![0; n],
            nets: Vec::new(),
        };
        Footprints {
            epoch: 0,
            nodes: set(),
            sides: set(),
            parent: vec![GateId::from_index(0); n],
            cone: vec![0; n],
            cone_parent: vec![GateId::from_index(0); n],
            exempt: Vec::new(),
            witness: false,
            path_len: 0,
        }
    }
}

impl Footprint for Footprints {
    fn begin(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.nodes.seen.fill(0);
            self.sides.seen.fill(0);
            self.cone.fill(0);
            self.epoch = 1;
        }
        self.nodes.nets.clear();
        self.sides.nets.clear();
        self.exempt.clear();
        self.witness = false;
    }

    fn node(&mut self, net: GateId) {
        self.nodes.insert(net, self.epoch);
    }

    fn side(&mut self, net: GateId) {
        self.sides.insert(net, self.epoch);
    }

    fn step(&mut self, from: GateId, to: GateId) {
        self.parent[to.index()] = from;
    }

    fn cone_step(&mut self, from: GateId, to: GateId) {
        self.cone[to.index()] = self.epoch;
        self.cone_parent[to.index()] = from;
    }

    /// The path origin → … → `po` the walk took proves the fault
    /// observable by itself, whatever else the walk read: each of its
    /// gates passed because every side input that blocks lies in the
    /// origin's structural cone (and so may carry the effect). It is kept
    /// as the footprint: the path's gates after the origin, in order (the
    /// origin alone when it is an output), then, for each blocking side
    /// input on the path, the cone walk's chain from that input back to
    /// the origin, which proves it in the cone; the sides are the ones
    /// the path passed. A later batch keeps the verdict when the path and
    /// the chains are intact and no side blocks under its own values
    /// unless it is one of those cone inputs
    /// ([`ImplicationEngine::witness_holds`]).
    fn observed(
        &mut self,
        engine: &ImplicationEngine<'_>,
        origin: GateId,
        pin: Pin,
        po: GateId,
        value: &dyn Fn(usize) -> Logic,
    ) {
        let mut path = vec![po];
        while let Some(&x) = path.last().filter(|&&x| x != origin) {
            path.push(self.parent[x.index()]);
        }
        path.reverse();
        if path.len() > 1 {
            path.remove(0);
        }
        let mut chains: Vec<GateId> = Vec::new();
        let mut exempt: Vec<u32> = Vec::new();
        let mut holds = true;
        engine.witness_sides(origin, pin, path.iter().copied(), |kind, s, on_path| {
            if holds && engine.side_blocks(kind, s, value, &mut ()) {
                if on_path && (s == origin || self.cone[s.index()] == self.epoch) {
                    exempt.push(s.index() as u32);
                    let mut x = s;
                    while x != origin {
                        chains.push(x);
                        x = self.cone_parent[x.index()];
                    }
                } else {
                    holds = false;
                }
            }
        });
        if !holds {
            return;
        }
        self.begin();
        for &x in path.iter().chain(&chains) {
            self.node(x);
        }
        self.path_len = path.len() as u32;
        engine.witness_sides(origin, pin, path.iter().copied(), |_, s, _| self.side(s));
        exempt.sort_unstable();
        exempt.dedup();
        self.exempt = exempt;
        self.witness = true;
    }

    fn flush(&self, record: &mut VerdictRecord) -> Option<u32> {
        record.nodes.extend_from_slice(&self.nodes.nets);
        record.sides.extend_from_slice(&self.sides.nets);
        record.exempt.extend_from_slice(&self.exempt);
        self.witness.then_some(self.path_len)
    }
}

/// A verdict batch kept for rebasing
/// ([`ImplicationEngine::faults_untestable_recorded`]): every fault's
/// verdict and the footprint of its observation walk, and per
/// excitation literal the literals its propagation assigned and its
/// outcome.
#[derive(Clone, Debug, Default)]
pub struct VerdictRecord {
    /// The serial of the engine that ran the batch.
    engine: u64,
    verdicts: Vec<Option<UntestableReason>>,
    /// One per excitation literal, in literal order.
    groups: Vec<Group>,
    /// 1 + the group index of each literal, 0 for none.
    by_lit: Vec<u32>,
    /// Each group's faults, back to back.
    faults: Vec<FaultRecord>,
    /// Each group's assigned literals, back to back.
    lits: Vec<u32>,
    /// Each fault's node footprint, back to back.
    nodes: Vec<u32>,
    /// Each fault's side footprint, back to back.
    sides: Vec<u32>,
    /// Each witness's blocking side inputs in the origin's cone, back to
    /// back.
    exempt: Vec<u32>,
    /// What each verdict read, built on the first rebased count.
    index: OnceLock<VerdictIndex>,
}

/// A [`VerdictRecord`] indexed by what each verdict read, so that a
/// rebased count visits only the groups and faults an edit can reach.
#[derive(Clone, Debug, Default)]
struct VerdictIndex {
    /// Groups by the literals [`reaches`] tests: the seed, every literal
    /// the excitation assigned, and the conflict net's first literal.
    groups: Csr,
    /// Faults by the nets of their node footprint.
    nodes: Csr,
    /// Faults by the nets of their side footprint.
    sides: Csr,
    /// Faults by site gate.
    gates: Csr,
    /// Each fault's group.
    group_of: Vec<u32>,
    /// Faults with an untestable verdict.
    untestable: usize,
}

/// The measures of an edited fault universe that a rebased count
/// ([`ImplicationEngine::untestable_count_rebased`]) reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RebasedCount {
    /// Faults of the edited universe proven untestable.
    pub untestable: usize,
    /// Faults in the edited universe.
    pub faults: usize,
    /// Verdicts decided afresh: an excitation or an observation walk
    /// ran for them. Every other verdict of the edited universe is the
    /// base record's.
    pub decided: usize,
}

/// One excitation literal of a [`VerdictRecord`]. The `*_end` fields
/// close its spans of the record's pools; each span opens where the
/// previous group's closed.
#[derive(Clone, Copy, Debug)]
struct Group {
    lit: u32,
    unsettable: bool,
    excited: Result<(), UntestableReason>,
    lits_end: u32,
    faults_end: u32,
}

/// One fault of a [`VerdictRecord`], closing its footprint spans.
#[derive(Clone, Copy, Debug)]
struct FaultRecord {
    site: (GateId, Pin, bool),
    verdict: Option<UntestableReason>,
    /// The node footprint is a witness whose path is its first this many
    /// nodes (see [`Footprints`]).
    witness: Option<u32>,
    nodes_end: u32,
    sides_end: u32,
    exempt_end: u32,
}

impl VerdictRecord {
    /// The verdicts, aligned with the faults the batch was given.
    #[must_use]
    pub fn verdicts(&self) -> &[Option<UntestableReason>] {
        &self.verdicts
    }

    /// The group index of excitation literal `lit`.
    fn group(&self, lit: usize) -> Option<u32> {
        (*self.by_lit.get(lit)?).checked_sub(1)
    }

    /// The spans of `groups[k]` in `lits` and `faults`.
    fn spans(&self, k: usize) -> (Range<usize>, Range<usize>) {
        let (lits, faults) = k.checked_sub(1).map_or((0, 0), |j| {
            let p = &self.groups[j];
            (p.lits_end as usize, p.faults_end as usize)
        });
        let g = &self.groups[k];
        (lits..g.lits_end as usize, faults..g.faults_end as usize)
    }

    /// The record's index, built on first use.
    fn index(&self) -> &VerdictIndex {
        self.index.get_or_init(|| {
            let n = self.by_lit.len() / 2;
            let group_of: Vec<u32> = (0..self.groups.len())
                .flat_map(|k| self.spans(k).1.map(move |_| k as u32))
                .collect();
            let faults = |emit: &mut dyn FnMut(usize, u32), pool: fn(&Self, usize) -> &[u32]| {
                for k in 0..self.faults.len() {
                    for &x in pool(self, k) {
                        emit(x as usize, k as u32);
                    }
                }
            };
            VerdictIndex {
                groups: Csr::build(2 * n, |emit| {
                    for (k, g) in self.groups.iter().enumerate() {
                        emit(g.lit as usize, k as u32);
                        for &l in &self.lits[self.spans(k).0] {
                            emit(l as usize, k as u32);
                        }
                        if let Err(UntestableReason::Unexcitable { conflict, .. }) = g.excited {
                            emit(2 * conflict.index(), k as u32);
                        }
                    }
                }),
                nodes: Csr::build(n, |emit| faults(emit, |r, k| r.footprint(k).0)),
                sides: Csr::build(n, |emit| faults(emit, |r, k| r.footprint(k).1)),
                gates: Csr::build(n, |emit| {
                    for (k, f) in self.faults.iter().enumerate() {
                        emit(f.site.0.index(), k as u32);
                    }
                }),
                group_of,
                untestable: self.faults.iter().filter(|f| f.verdict.is_some()).count(),
            }
        })
    }

    /// The node and side footprints of `faults[k]`.
    fn footprint(&self, k: usize) -> (&[u32], &[u32]) {
        let (nodes, sides) = k.checked_sub(1).map_or((0, 0), |j| {
            let p = &self.faults[j];
            (p.nodes_end as usize, p.sides_end as usize)
        });
        let f = &self.faults[k];
        (
            &self.nodes[nodes..f.nodes_end as usize],
            &self.sides[sides..f.sides_end as usize],
        )
    }

    /// The cone inputs `faults[k]`'s witness may pass while they block.
    fn exempt(&self, k: usize) -> &[u32] {
        let from = k
            .checked_sub(1)
            .map_or(0, |j| self.faults[j].exempt_end as usize);
        &self.exempt[from..self.faults[k].exempt_end as usize]
    }
}

/// `0..keys.len()` ordered by key (stably), keys below `bound`: a
/// counting sort, as every key is a literal of the netlist.
fn order_by_key(keys: &[usize], bound: usize) -> Vec<usize> {
    let mut start = vec![0u32; bound + 1];
    for &k in keys {
        start[k + 1] += 1;
    }
    for k in 0..bound {
        start[k + 1] += start[k];
    }
    let mut order = vec![0; keys.len()];
    for (i, &k) in keys.iter().enumerate() {
        order[start[k] as usize] = i;
        start[k] += 1;
    }
    order
}

/// Leaves `lits` — a recorded excitation's assigned literals — in `prop`
/// as if the excitation had just propagated.
fn restore(prop: &mut Prop, lits: &[u32]) {
    prop.begin();
    for &l in lits {
        prop.assign(l as usize / 2, l % 2 == 1);
    }
}

impl ImplicationEngine<'_> {
    /// Statically decides whether the stuck-at-`stuck` fault at
    /// `(gate, pin)` is untestable. `None` means "not provably
    /// untestable" — search may still refute it.
    ///
    /// The batch of one: see [`ImplicationEngine::faults_untestable`].
    #[must_use]
    pub fn fault_untestable(
        &self,
        gate: GateId,
        pin: Pin,
        stuck: bool,
    ) -> Option<UntestableReason> {
        self.faults_untestable(&[(gate, pin, stuck)])
            .pop()
            .flatten()
    }

    /// [`ImplicationEngine::fault_untestable`] for every `(gate, pin,
    /// stuck)` fault of `faults`, aligned with it.
    ///
    /// Faults are grouped by excitation literal (activation net, ¬stuck):
    /// one propagation decides excitation for the whole group and leaves
    /// the implied values every member's observation walk reads, so a
    /// fault list costs one propagation per distinct literal rather than
    /// one per fault. Scratch is allocated once per call.
    ///
    /// # Panics
    ///
    /// Panics if a fault names a gate outside the netlist or a pin
    /// beyond its gate's fan-in.
    #[must_use]
    pub fn faults_untestable(
        &self,
        faults: &[(GateId, Pin, bool)],
    ) -> Vec<Option<UntestableReason>> {
        let mut scratch = VerdictScratch::new(self.netlist().gate_count());
        self.verdicts_with(faults, &mut scratch)
    }

    /// [`ImplicationEngine::faults_untestable`], keeping the record a
    /// rebased engine counts from
    /// ([`ImplicationEngine::untestable_count_rebased`]).
    ///
    /// # Panics
    ///
    /// As [`ImplicationEngine::faults_untestable`].
    #[must_use]
    pub fn faults_untestable_recorded(&self, faults: &[(GateId, Pin, bool)]) -> VerdictRecord {
        let n = self.netlist().gate_count();
        let mut scratch = VerdictScratch::new(n);
        let mut footprint = Footprints::new(n);
        let mut record = VerdictRecord {
            engine: self.serial,
            ..VerdictRecord::default()
        };
        record.verdicts = self.batch(faults, &mut scratch, &mut footprint, Some(&mut record));
        record.by_lit = vec![0; 2 * n];
        for (k, g) in record.groups.iter().enumerate() {
            record.by_lit[g.lit as usize] = k as u32 + 1;
        }
        record
    }

    /// Counts the untestable faults of an edited fault universe on an
    /// engine built by [`ImplicationEngine::rebase`], from `base` — a
    /// batch that the engine this one was rebased from recorded over its
    /// netlist's whole universe — and `added`, the edited universe's
    /// faults at the gates the edit rewrote or appended. The edited
    /// universe is `base`'s minus its faults at rewritten gates, plus
    /// `added`. Returns `None` when `base` was not recorded by this
    /// engine's prior (the caller then decides the universe afresh).
    ///
    /// The count is the base count, minus the removed faults' verdicts,
    /// plus the verdicts of `added`, plus what the edit flips. Only
    /// verdicts a changed read can flip are decided again; the rest keep
    /// the base verdict. A base fault is re-decided when its gate
    /// survives the edit and
    ///
    /// * its excitation may not repeat: its recorded trace meets the
    ///   rebase's trace or closure mask, or its literal's unsettable flag
    ///   changed; or
    /// * its observation walk read a net whose gate record, reader list or
    ///   output flag changed where it stood on or passed it, or whose
    ///   implied value or storage flag changed where it was a side input;
    ///   or its own gate's reader list or output flag changed.
    ///
    /// The record's index (each literal to the groups whose excitation
    /// assigned it, each net to the faults whose walk read it) is built
    /// on the first count, so a count visits only what the rebase marked
    /// as changed. A re-decided fault needs no walk when its literal is
    /// unsettable or its excitation repeats with an error (it stays
    /// untestable), or when its observable verdict's witness still holds:
    /// the gates of its path, and of the cone paths that put its exempt
    /// side inputs in the origin's cone, keep their records, the path
    /// still ends at an output, and no side input on the path blocks
    /// under this engine's excitation values except an exempt one (see
    /// the recording batch). An excitation that repeats restores its
    /// implied values from the record instead of propagating.
    ///
    /// # Panics
    ///
    /// As [`ImplicationEngine::faults_untestable`], for a fault of
    /// `added`.
    #[must_use]
    pub fn untestable_count_rebased(
        &self,
        base: &VerdictRecord,
        added: &[(GateId, Pin, bool)],
    ) -> Option<RebasedCount> {
        let diff = self.rebased.as_ref().filter(|d| d.prior == base.engine)?;
        let index = base.index();
        let mut scratch = VerdictScratch::new(self.netlist().gate_count());

        // Groups whose excitation may not repeat, then those that do not.
        let mut changed: Vec<u32> = Vec::new();
        for mask in [&diff.traces, &diff.closure] {
            for (w, &word) in mask.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    changed.extend_from_slice(
                        index.groups.get(w * 64 + bits.trailing_zeros() as usize),
                    );
                    bits &= bits - 1;
                }
            }
        }
        changed.extend(
            diff.unsettable
                .iter()
                .filter_map(|&l| base.group(l as usize)),
        );
        changed.sort_unstable();
        changed.dedup();
        changed.retain(|&k| !self.repeats(base, diff, k as usize, &mut scratch.values));

        // The base faults a changed read reaches, and the removed ones.
        let mut visit: Vec<u32> = Vec::new();
        for &k in &changed {
            visit.extend(base.spans(k as usize).1.map(|f| f as u32));
        }
        for (x, _) in diff.walks.iter().enumerate().filter(|(_, &w)| w) {
            visit.extend_from_slice(index.nodes.get(x));
            visit.extend_from_slice(index.gates.get(x));
        }
        for (x, _) in diff.sides.iter().enumerate().filter(|(_, &s)| s) {
            visit.extend_from_slice(index.sides.get(x));
        }
        let mut removed = 0usize;
        let mut untestable = index.untestable;
        for &g in &diff.rewritten {
            for &k in index.gates.get(g.index()) {
                removed += 1;
                untestable -= usize::from(base.faults[k as usize].verdict.is_some());
            }
        }
        visit.sort_unstable();
        visit.dedup();
        visit.retain(|&k| {
            diff.rewritten
                .binary_search(&base.faults[k as usize].site.0)
                .is_err()
        });

        // One excitation per literal, shared by its base and added faults.
        const ADDED: u32 = 1 << 31;
        let is_po = self.netlist().topology().output_mask();
        let mut work: Vec<(u32, u32)> = visit
            .iter()
            .map(|&k| (base.groups[index.group_of[k as usize] as usize].lit, k))
            .collect();
        work.extend(added.iter().enumerate().map(|(i, &(gate, pin, stuck))| {
            let lit = self.activation(gate, pin).index() * 2 + usize::from(!stuck);
            (lit as u32, i as u32 | ADDED)
        }));
        work.sort_unstable();
        let mut decided = 0usize;
        for chunk in work.chunk_by(|a, b| a.0 == b.0) {
            let lit = chunk[0].0 as usize;
            let (net, required) = (GateId::from_index(lit / 2), lit % 2 == 1);
            let prior = base.group(lit).map(|k| k as usize);
            let repeats = prior.is_some_and(|k| changed.binary_search(&(k as u32)).is_err());
            let trace = prior
                .map(|k| &base.lits[base.spans(k).0])
                .filter(|_| repeats);
            // A repeated excitation error decides every fault of the
            // group, and so does an unsettable literal: its excitation
            // fails whatever the propagation finds.
            let unexcitable = prior.is_some_and(|k| repeats && base.groups[k].excited.is_err())
                || self.is_unsettable(net, required);
            let mut excited: Option<bool> = None;
            for &(_, tag) in chunk {
                let (before, site, witness) = if tag & ADDED != 0 {
                    (false, added[(tag & !ADDED) as usize], None)
                } else {
                    let f = &base.faults[tag as usize];
                    let nodes = base.footprint(tag as usize).0;
                    // The witness's path and cone chains keep their gate
                    // records, and the path still ends at an output.
                    let witness = f.witness.map(|len| &nodes[..len as usize]).filter(|path| {
                        nodes.iter().all(|&x| {
                            diff.rewritten
                                .binary_search(&GateId::from_index(x as usize))
                                .is_err()
                        }) && path.last().is_some_and(|&x| is_po[x as usize])
                    });
                    (
                        f.verdict.is_some(),
                        f.site,
                        witness.map(|path| (path, base.exempt(tag as usize))),
                    )
                };
                let (gate, pin, _) = site;
                let after = unexcitable || {
                    let ok = *excited.get_or_insert_with(|| {
                        self.excite_or_restore(net, required, trace, &mut scratch)
                            .is_ok()
                    });
                    let value = |i: usize| scratch.prop.get(&self.fixed, i);
                    let held = witness.is_some_and(|(path, exempt)| {
                        let path = path.iter().map(|&x| GateId::from_index(x as usize));
                        ok && self.witness_holds(gate, pin, path, &value, exempt)
                    });
                    !held && {
                        decided += 1;
                        !ok || self
                            .observation_verdict(gate, pin, &mut scratch, &mut ())
                            .is_some()
                    }
                };
                untestable += usize::from(after);
                untestable -= usize::from(before);
            }
        }
        Some(RebasedCount {
            untestable,
            faults: base.faults.len() - removed + added.len(),
            decided,
        })
    }

    /// Whether `base`'s group `k` repeats its excitation on this rebased
    /// engine: its literal's unsettable flag is unchanged and its trace
    /// misses the rebase's masks, or meets only the closure mask of a
    /// consistent propagation that still closes.
    fn repeats(
        &self,
        base: &VerdictRecord,
        diff: &RebaseDiff,
        k: usize,
        values: &mut TraceValues,
    ) -> bool {
        let g = base.groups[k];
        let lit = g.lit as usize;
        let conflict = match g.excited {
            Err(UntestableReason::Unexcitable { conflict, .. }) => Some(conflict),
            _ => None,
        };
        let trace = &base.lits[base.spans(k).0];
        g.unsettable == self.is_unsettable(GateId::from_index(lit / 2), lit % 2 == 1)
            && !reaches(&diff.traces, lit, trace, conflict)
            && (!reaches(&diff.closure, lit, trace, conflict)
                || conflict.is_none() && self.closes(&diff.known, trace, values))
    }

    pub(crate) fn verdicts_with(
        &self,
        faults: &[(GateId, Pin, bool)],
        scratch: &mut VerdictScratch,
    ) -> Vec<Option<UntestableReason>> {
        self.batch(faults, scratch, &mut (), None)
    }

    /// The verdict batch: one excitation per distinct literal, then one
    /// observation walk per fault. With `record`, each group's
    /// excitation and each fault's walk footprint are kept.
    fn batch<F: Footprint>(
        &self,
        faults: &[(GateId, Pin, bool)],
        scratch: &mut VerdictScratch,
        footprint: &mut F,
        mut record: Option<&mut VerdictRecord>,
    ) -> Vec<Option<UntestableReason>> {
        let lits: Vec<usize> = faults
            .iter()
            .map(|&(gate, pin, stuck)| self.activation(gate, pin).index() * 2 + usize::from(!stuck))
            .collect();
        let order = order_by_key(&lits, 2 * self.netlist().gate_count());
        let mut verdicts = vec![None; faults.len()];
        for group in order.chunk_by(|&a, &b| lits[a] == lits[b]) {
            let lit = lits[group[0]];
            let (net, required) = (GateId::from_index(lit / 2), lit % 2 == 1);
            let excited = self.excite(net, required, &mut scratch.prop);
            for &i in group {
                let (gate, pin, _) = faults[i];
                footprint.begin();
                verdicts[i] = match excited {
                    Err(reason) => Some(reason),
                    Ok(()) => self.observation_verdict(gate, pin, scratch, footprint),
                };
                if let Some(record) = record.as_deref_mut() {
                    let witness = footprint.flush(record);
                    record.faults.push(FaultRecord {
                        site: faults[i],
                        verdict: verdicts[i],
                        witness,
                        nodes_end: record.nodes.len() as u32,
                        sides_end: record.sides.len() as u32,
                        exempt_end: record.exempt.len() as u32,
                    });
                }
            }
            if let Some(record) = record.as_deref_mut() {
                record.lits.extend(scratch.prop.trail_lits());
                record.groups.push(Group {
                    lit: lit as u32,
                    unsettable: self.is_unsettable(net, required),
                    excited,
                    lits_end: record.lits.len() as u32,
                    faults_end: record.faults.len() as u32,
                });
            }
        }
        verdicts
    }

    /// The excitation of `net = required`: restored from a prior trace
    /// known to repeat, or propagated.
    fn excite_or_restore(
        &self,
        net: GateId,
        required: bool,
        repeated: Option<&[u32]>,
        scratch: &mut VerdictScratch,
    ) -> Result<(), UntestableReason> {
        match repeated {
            Some(trace) => {
                restore(&mut scratch.prop, trace);
                Ok(())
            }
            None => self.excite(net, required, &mut scratch.prop),
        }
    }

    /// Whether `path` — the gates after `origin` on a way to an output,
    /// in order, or `origin` alone when it is an output — still carries
    /// the effect of the fault at `(origin, pin)`: no side input of the
    /// faulted pin's gate blocks under `value`, and no off-path side
    /// input along the path does unless it is one of `exempt`. The caller
    /// vouches that the path's gate records and its end's output flag are
    /// unchanged, and that each net of `exempt` lies in `origin`'s
    /// structural cone (the walk passes a gate whose blocking inputs all
    /// do).
    fn witness_holds(
        &self,
        origin: GateId,
        pin: Pin,
        path: impl Iterator<Item = GateId>,
        value: &dyn Fn(usize) -> Logic,
        exempt: &[u32],
    ) -> bool {
        let mut open = true;
        self.witness_sides(origin, pin, path, |kind, s, on_path| {
            open = open
                && (!self.side_blocks(kind, s, value, &mut ())
                    || on_path && exempt.contains(&(s.index() as u32)));
        });
        open
    }

    /// The side inputs a witness path passes, each with the kind of the
    /// gate it feeds and whether it is off the path (rather than a
    /// sibling of the faulted pin): the faulted pin's siblings, then
    /// every off-path input along the path.
    fn witness_sides(
        &self,
        origin: GateId,
        pin: Pin,
        path: impl Iterator<Item = GateId>,
        mut side: impl FnMut(GateKind, GateId, bool),
    ) {
        let netlist = self.netlist();
        if let Pin::Input(p) = pin {
            let gate = netlist.gate(origin);
            for (q, &s) in gate.inputs().iter().enumerate() {
                if q != p as usize {
                    side(gate.kind(), s, false);
                }
            }
        }
        let mut prev = origin;
        for cur in path.filter(|&x| x != origin) {
            let gate = netlist.gate(cur);
            for &s in gate.inputs() {
                if s != prev {
                    side(gate.kind(), s, true);
                }
            }
            prev = cur;
        }
    }

    /// The net a fault at `(gate, pin)` needs driven to excite it.
    fn activation(&self, gate: GateId, pin: Pin) -> GateId {
        match pin {
            Pin::Output => gate,
            Pin::Input(p) => self.netlist().gate(gate).inputs()[p as usize],
        }
    }

    /// Propagates the excitation assumption `net = required`, leaving
    /// its implied values in `prop`, or returns why excitation is
    /// impossible.
    fn excite(&self, net: GateId, required: bool, prop: &mut Prop) -> Result<(), UntestableReason> {
        let outcome = propagate(&self.ctx(), prop, &[(net.index() as u32, required)]);
        let conflict = match outcome {
            Err(conflict) => conflict,
            // Unsettable, yet the closure no longer contradicts itself:
            // storage outputs and implied constants conflict at the net.
            Ok(()) if self.is_unsettable(net, required) => net,
            Ok(()) => return Ok(()),
        };
        Err(UntestableReason::Unexcitable {
            net,
            required,
            conflict,
        })
    }

    /// The observation half of a verdict, under the implied values the
    /// excitation propagation left in `scratch.prop`.
    fn observation_verdict<F: Footprint>(
        &self,
        gate: GateId,
        pin: Pin,
        scratch: &mut VerdictScratch,
        footprint: &mut F,
    ) -> Option<UntestableReason> {
        let value = |i: usize| scratch.prop.get(&self.fixed, i);
        let blocked_at_pin = match pin {
            Pin::Output => false,
            Pin::Input(p) => {
                footprint.node(gate);
                // The effect lives on one pin wire: it must first pass
                // `gate` itself. Side pins read the *unfaulted* nets, so
                // they are "outside the cone" by construction (the
                // netlist is acyclic), including other pins fed by the
                // activation net.
                let reader = self.netlist().gate(gate);
                reader.kind().is_storage()
                    || (0..reader.fanin()).filter(|&q| q != p as usize).any(|q| {
                        self.side_blocks(reader.kind(), reader.inputs()[q], value, footprint)
                    })
            }
        };
        if blocked_at_pin {
            return Some(UntestableReason::Unobservable { origin: gate });
        }
        match self.unobservable_from(gate, &scratch.prop, &mut scratch.marks, footprint) {
            Some(po) => {
                footprint.observed(self, gate, pin, po, &value);
                None
            }
            None => Some(UntestableReason::Unobservable { origin: gate }),
        }
    }

    /// Whether a side input provably kills fault-effect passage through
    /// a gate of `kind`: implied to the controlling value (output equal
    /// in both machines), or an uncontrollable storage output (`X` in
    /// both machines — no *known* difference can emerge, and the
    /// combinational test view requires one).
    fn side_blocks(
        &self,
        kind: GateKind,
        side: GateId,
        value: impl Fn(usize) -> Logic,
        footprint: &mut impl Footprint,
    ) -> bool {
        footprint.side(side);
        if self.netlist().gate(side).kind().is_storage() {
            return true;
        }
        match kind.controlling_value() {
            Some(c) => value(side.index()) == Logic::from(c),
            None => false,
        }
    }

    /// Walks the fanout cone of `origin`: can the fault effect possibly
    /// reach a primary output, given the values implied by the
    /// excitation assumption? Returns the output it reached, if any.
    /// Conservative in the sound direction — `None` only when every path
    /// is provably cut.
    fn unobservable_from<F: Footprint>(
        &self,
        origin: GateId,
        prop: &Prop,
        marks: &mut Marks,
        footprint: &mut F,
    ) -> Option<GateId> {
        let value = |i: usize| prop.get(&self.fixed, i);
        let topology = self.netlist().topology();
        let (readers, is_po) = (topology.readers(), topology.output_mask());
        marks.begin();
        let epoch = marks.epoch;
        // The structural cone the effect could live in is only consulted
        // for side inputs that would block, so it is built on first need.
        let mut cone_built = false;
        marks.reach[origin.index()] = epoch;
        marks.stack.push(origin);
        while let Some(g) = marks.stack.pop() {
            footprint.node(g);
            if is_po[g.index()] {
                return Some(g);
            }
            for &(reader, _) in &readers[g.index()] {
                let r = reader.index();
                if marks.reach[r] == epoch {
                    continue;
                }
                footprint.node(reader);
                let gate = self.netlist().gate(reader);
                if gate.kind().is_storage() {
                    continue;
                }
                let blocked = gate.inputs().iter().any(|&s| {
                    self.side_blocks(gate.kind(), s, value, footprint)
                        && !self.in_cone(origin, s, marks, &mut cone_built, footprint)
                });
                if blocked {
                    continue;
                }
                marks.reach[r] = epoch;
                marks.stack.push(reader);
                footprint.step(g, reader);
            }
        }
        None
    }

    /// Whether `net` lies in the structural fanout cone of `origin`
    /// (effects die at storage elements in the combinational view).
    /// Side inputs from inside the cone may themselves carry the effect,
    /// so only out-of-cone side values can block. The cone is stamped
    /// into `marks` under the current epoch the first time it is asked
    /// for.
    fn in_cone(
        &self,
        origin: GateId,
        net: GateId,
        marks: &mut Marks,
        built: &mut bool,
        footprint: &mut impl Footprint,
    ) -> bool {
        let epoch = marks.epoch;
        if !*built {
            *built = true;
            marks.cone[origin.index()] = epoch;
            marks.cone_stack.push(origin);
            let readers = self.readers();
            while let Some(g) = marks.cone_stack.pop() {
                footprint.node(g);
                for &(reader, _) in &readers[g.index()] {
                    footprint.node(reader);
                    let r = reader.index();
                    if marks.cone[r] != epoch && !self.netlist().gate(reader).kind().is_storage() {
                        marks.cone[r] = epoch;
                        marks.cone_stack.push(reader);
                        footprint.cone_step(g, reader);
                    }
                }
            }
        }
        marks.cone[net.index()] == epoch
    }

    /// The per-fault verdict path before batching: a fresh propagation
    /// and fresh value map and marks for every fault. Kept as the oracle
    /// the batch is checked against.
    #[cfg(test)]
    pub(crate) fn fault_untestable_reference(
        &self,
        gate: GateId,
        pin: Pin,
        stuck: bool,
    ) -> Option<UntestableReason> {
        let required = !stuck;
        let net = self.activation(gate, pin);
        let vals = if self.is_unsettable(net, required) {
            let conflict = self.query(net, required).conflict.unwrap_or(net);
            return Some(UntestableReason::Unexcitable {
                net,
                required,
                conflict,
            });
        } else {
            match self.query_values(net, required) {
                Ok(vals) => vals,
                Err(conflict) => {
                    return Some(UntestableReason::Unexcitable {
                        net,
                        required,
                        conflict,
                    })
                }
            }
        };
        if let Pin::Input(p) = pin {
            let reader = self.netlist().gate(gate);
            if reader.kind().is_storage()
                || (0..reader.fanin()).filter(|&q| q != p as usize).any(|q| {
                    self.side_blocks(reader.kind(), reader.inputs()[q], |i| vals[i], &mut ())
                })
            {
                return Some(UntestableReason::Unobservable { origin: gate });
            }
        }
        let n = self.netlist().gate_count();
        let mut cone = vec![false; n];
        cone[gate.index()] = true;
        let mut stack = vec![gate];
        while let Some(g) = stack.pop() {
            for &(reader, _) in &self.readers()[g.index()] {
                let r = reader.index();
                if !cone[r] && !self.netlist().gate(reader).kind().is_storage() {
                    cone[r] = true;
                    stack.push(reader);
                }
            }
        }
        let mut reach = vec![false; n];
        reach[gate.index()] = true;
        let mut stack = vec![gate];
        while let Some(g) = stack.pop() {
            if self.netlist().topology().output_mask()[g.index()] {
                return None;
            }
            for &(reader, _) in &self.readers()[g.index()] {
                let r = reader.index();
                if reach[r] {
                    continue;
                }
                let rg = self.netlist().gate(reader);
                if rg.kind().is_storage() {
                    continue;
                }
                if rg.inputs().iter().any(|&s| {
                    !cone[s.index()] && self.side_blocks(rg.kind(), s, |i| vals[i], &mut ())
                }) {
                    continue;
                }
                reach[r] = true;
                stack.push(reader);
            }
        }
        Some(UntestableReason::Unobservable { origin: gate })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dft_netlist::circuits::{random_combinational, random_sequential, redundant_fixture};
    use dft_netlist::{GateKind, Netlist};
    use proptest::prelude::*;

    /// Every single stuck-at fault of `n`, sources and storage included.
    fn all_faults(n: &Netlist) -> Vec<(GateId, Pin, bool)> {
        let mut out = Vec::new();
        for (id, gate) in n.iter() {
            for stuck in [false, true] {
                out.push((id, Pin::Output, stuck));
                for p in 0..gate.fanin() {
                    out.push((id, Pin::Input(p as u8), stuck));
                }
            }
        }
        out
    }

    fn reference(
        e: &ImplicationEngine<'_>,
        faults: &[(GateId, Pin, bool)],
    ) -> Vec<Option<UntestableReason>> {
        faults
            .iter()
            .map(|&(g, p, s)| e.fault_untestable_reference(g, p, s))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn batched_verdicts_equal_the_per_fault_path(
            seed in any::<u64>(),
            inputs in 2usize..=8,
            gates in 4usize..=80,
            sequential in any::<bool>(),
        ) {
            let n = if sequential {
                random_sequential(inputs.min(4), 2, gates / 8 + 1, 2, seed)
            } else {
                random_combinational(inputs, gates, seed)
            };
            let e = ImplicationEngine::new(&n);
            let faults = all_faults(&n);
            prop_assert_eq!(e.faults_untestable(&faults), reference(&e, &faults));
            // In any order: the grouping must not leak into the answers.
            let reversed: Vec<_> = faults.iter().rev().copied().collect();
            prop_assert_eq!(e.faults_untestable(&reversed), reference(&e, &reversed));
        }
    }

    #[test]
    fn epoch_counters_wrap_without_stale_marks() {
        for n in [redundant_fixture(), random_combinational(8, 60, 3)] {
            let e = ImplicationEngine::new(&n);
            let faults = all_faults(&n);
            let want = reference(&e, &faults);
            // Every stamp holds epoch 1, as if left from the start of the
            // previous lap, and both odometers are one step from wrapping:
            // the batch crosses zero on its second propagation and walk,
            // and any stale stamp that survived would be misread.
            let mut scratch = VerdictScratch::new(n.gate_count());
            scratch.prop.stale_lap();
            scratch.marks.cone.fill(1);
            scratch.marks.reach.fill(1);
            scratch.marks.epoch = u32::MAX;
            let got = e.verdicts_with(&faults, &mut scratch);
            assert!(scratch.marks.epoch < 1_000, "the marks epoch wrapped");
            assert!(scratch.prop.epoch < 1_000, "the propagation epoch wrapped");
            assert_eq!(got, want, "{}", n.name());
        }
    }

    #[test]
    fn unexcitable_constant_net() {
        // z = AND(a, NOT a): s-a-0 at z needs z = 1 — impossible.
        let mut n = Netlist::new("const");
        let a = n.add_input("a");
        let na = n.add_gate(GateKind::Not, &[a]).unwrap();
        let z = n.add_gate(GateKind::And, &[a, na]).unwrap();
        n.mark_output(z, "z").unwrap();
        let e = ImplicationEngine::new(&n);
        let r = e.fault_untestable(z, Pin::Output, false);
        assert!(matches!(r, Some(UntestableReason::Unexcitable { .. })));
        // s-a-1 needs z = 0 — always true, so it is excitable but the
        // effect never differs... which static analysis sees as
        // unobservable only through masking; here z is the output, so
        // it IS observable (good 0, faulty 1 at the PO directly).
        assert_eq!(e.fault_untestable(z, Pin::Output, true), None);
    }

    #[test]
    fn dangling_gate_is_unobservable() {
        let mut n = Netlist::new("dangling");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let y = n.add_gate(GateKind::And, &[a, b]).unwrap();
        let _dead = n.add_gate(GateKind::Or, &[a, b]).unwrap();
        n.mark_output(y, "y").unwrap();
        let e = ImplicationEngine::new(&n);
        let r = e.fault_untestable(_dead, Pin::Output, false);
        assert!(matches!(r, Some(UntestableReason::Unobservable { .. })));
    }

    #[test]
    fn state_side_input_blocks_observation() {
        // y = AND(a, dff): the a-pin fault needs the uncontrollable
        // state at 1 to pass — the paper's motivation for scan.
        let mut n = Netlist::new("seq");
        let a = n.add_input("a");
        let d = n.add_dff(a).unwrap();
        let y = n.add_gate(GateKind::And, &[a, d]).unwrap();
        n.mark_output(y, "y").unwrap();
        let e = ImplicationEngine::new(&n);
        let r = e.fault_untestable(y, Pin::Input(0), false);
        assert!(matches!(r, Some(UntestableReason::Unobservable { .. })));
        // The stem s-a-0 needs y = 1, i.e. the state at 1: unexcitable.
        let r = e.fault_untestable(y, Pin::Output, false);
        assert!(matches!(r, Some(UntestableReason::Unexcitable { .. })));
        // The stem s-a-1 is excited by a = 0 and y is the output itself.
        assert_eq!(e.fault_untestable(y, Pin::Output, true), None);
    }

    #[test]
    fn implied_controlling_side_blocks_observation() {
        // na = NOT a; z = AND(a, na) (constant 0); live = OR(a, b);
        // y = AND(live, z). Every fault on `live` is masked: its only
        // reader ANDs it with the implied-0 net z.
        let mut n = Netlist::new("masked");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let na = n.add_gate(GateKind::Not, &[a]).unwrap();
        let z = n.add_gate(GateKind::And, &[a, na]).unwrap();
        let live = n.add_gate(GateKind::Or, &[a, b]).unwrap();
        let y = n.add_gate(GateKind::And, &[live, z]).unwrap();
        n.mark_output(y, "y").unwrap();
        let e = ImplicationEngine::new(&n);
        for stuck in [false, true] {
            assert!(
                matches!(
                    e.fault_untestable(live, Pin::Output, stuck),
                    Some(UntestableReason::Unobservable { .. })
                ),
                "live s-a-{} must be statically unobservable",
                u8::from(stuck)
            );
        }
        // Faults on z's excitable polarity reach the PO: z s-a-1 is
        // excited by z = 0 (always) and observed when live = 1.
        assert_eq!(e.fault_untestable(z, Pin::Output, true), None);
    }

    #[test]
    fn testable_faults_pass_the_filter_on_c17() {
        let n = dft_netlist::circuits::c17();
        let e = ImplicationEngine::new(&n);
        for (id, gate) in n.iter() {
            for stuck in [false, true] {
                assert_eq!(
                    e.fault_untestable(id, Pin::Output, stuck),
                    None,
                    "c17 is fully testable"
                );
                for p in 0..gate.fanin() {
                    assert_eq!(
                        e.fault_untestable(id, Pin::Input(p as u8), stuck),
                        None,
                        "c17 is fully testable"
                    );
                }
            }
        }
    }
}
