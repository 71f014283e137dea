//! [`AnalysisCache`]: one netlist, many analyses, incremental updates.
//!
//! The cache owns a netlist plus the structural facts every analysis
//! shares (levels, reader lists, output mask) and the result vectors of
//! each analysis it has been asked for. The structure is copied from
//! the netlist's memoized [`dft_netlist::Topology`] when the cache is
//! built or rebased; after that the cache edits only its own copy — it
//! is the one place a topology is patched in place rather than rebuilt.
//! Applying a [`NetlistDelta`] mutates the netlist *through* the cache,
//! which then:
//!
//! 1. validates the edit (including the combinational-cycle check),
//! 2. patches the reader lists of the pins the edit touched and
//!    re-levelizes the affected cone with a worklist (no Kahn pass, no
//!    rebuilt reader table),
//! 3. records per-analysis dirty seeds — the gates whose transfer
//!    equations changed.
//!
//! The next read of an analysis re-solves only from those seeds via
//! [`crate::solver::resolve`]. On an acyclic value graph the fixpoint
//! is unique, so the incremental result is bit-identical to a
//! from-scratch solve — the property the randomized-edit proptests in
//! `tests/incremental.rs` hammer on. SCOAP's value graph is only
//! acyclic when the design has no storage (state feedback prices loops),
//! so on sequential designs the cache transparently falls back to the
//! full capped relaxation for SCOAP while constants and X-propagation
//! stay incremental (their DFF transfers ignore the data input).
//!
//! Cross-analysis dependencies are tracked the same way: a constant
//! change seeds the X-propagation pass, and a controllability change on
//! a storage element (its initializability may have flipped) does too.
//!
//! [`AnalysisCache::rebase`] adopts an externally edited netlist (the
//! repair autopilot applies candidate edits through its own transform
//! code) by diffing the append-only arena and seeding the differences.

use std::collections::VecDeque;

use dft_netlist::{ArenaDiff, GateId, LevelizeError, Netlist, NetlistError, Readers};
use dft_sim::Logic;

use crate::constants::Constants;
use crate::delta::{DeltaError, NetlistDelta};
use crate::dominators::Dominators;
use crate::scoap::{self, Controllability, Observability, ScoapResult, INFINITE};
use crate::solver::{order_by_level, resolve, GraphView};
use crate::xprop::{XProp, XWitness};

/// Dirty state of one analysis result.
#[derive(Clone, Debug)]
enum Dirty {
    /// Result (if present) is exact.
    Clean,
    /// Result is stale at these seeds (and whatever they reach).
    Seeds {
        forward: Vec<GateId>,
        backward: Vec<GateId>,
    },
    /// Result must be recomputed from scratch.
    Full,
}

impl Dirty {
    fn add(&mut self, forward: &[GateId], backward: &[GateId]) {
        match self {
            Dirty::Clean => {
                *self = Dirty::Seeds {
                    forward: forward.to_vec(),
                    backward: backward.to_vec(),
                };
            }
            Dirty::Seeds {
                forward: f,
                backward: b,
            } => {
                f.extend_from_slice(forward);
                b.extend_from_slice(backward);
            }
            Dirty::Full => {}
        }
    }

    fn is_clean(&self) -> bool {
        matches!(self, Dirty::Clean)
    }
}

/// Owns the results of many analyses over one (mutable) netlist.
#[derive(Clone, Debug)]
pub struct AnalysisCache {
    netlist: Netlist,
    level: Vec<u32>,
    readers: Readers,
    is_output: Vec<bool>,
    has_storage: bool,
    scoap: Option<ScoapResult>,
    constants: Option<Vec<Logic>>,
    xprop: Option<Vec<XWitness>>,
    dominators: Option<Dominators>,
    scoap_dirty: Dirty,
    constants_dirty: Dirty,
    xprop_dirty: Dirty,
}

impl AnalysisCache {
    /// Builds a cache over a snapshot of `netlist`. No analysis runs
    /// until first requested.
    ///
    /// # Errors
    ///
    /// Returns [`LevelizeError`] if the combinational frame has a cycle
    /// (the cache's invariant is an acyclic frame; deltas preserve it).
    pub fn new(netlist: &Netlist) -> Result<Self, LevelizeError> {
        let topology = netlist.topology();
        Ok(AnalysisCache {
            netlist: netlist.clone(),
            level: topology.levelization()?.levels().to_vec(),
            readers: topology.readers().clone(),
            is_output: topology.output_mask().to_vec(),
            has_storage: !netlist.storage_elements().is_empty(),
            scoap: None,
            constants: None,
            xprop: None,
            dominators: None,
            scoap_dirty: Dirty::Full,
            constants_dirty: Dirty::Full,
            xprop_dirty: Dirty::Full,
        })
    }

    /// The current netlist (reflects every applied delta).
    #[must_use]
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// Combinational level of a gate (maintained incrementally).
    #[must_use]
    pub fn level(&self, id: GateId) -> u32 {
        self.level[id.index()]
    }

    /// Whether the design currently contains storage elements.
    #[must_use]
    pub fn has_storage(&self) -> bool {
        self.has_storage
    }

    // ------------------------------------------------------------------
    // Edits
    // ------------------------------------------------------------------

    /// Applies one delta: validate, mutate, re-levelize the affected
    /// cone, mark dirty regions. Returns the new gate's id for
    /// [`NetlistDelta::AddGate`].
    ///
    /// # Errors
    ///
    /// [`DeltaError`] — the cache and netlist are untouched on error.
    pub fn apply(&mut self, delta: &NetlistDelta) -> Result<Option<GateId>, DeltaError> {
        match delta {
            NetlistDelta::AddGate { kind, inputs } => {
                let id = self.netlist.add_gate(*kind, inputs)?;
                self.level.push(0);
                self.readers.push_gate();
                self.is_output.push(false);
                for (pin, &src) in inputs.iter().enumerate() {
                    self.readers.append(src, (id, pin as u8));
                }
                self.level[id.index()] = self.compute_level(id);
                if kind.is_storage() {
                    self.has_storage = true;
                }
                let mut bwd = inputs.clone();
                bwd.push(id);
                self.invalidate(&[id], &bwd);
                Ok(Some(id))
            }
            NetlistDelta::RemoveGate { gate, value } => {
                let gate = *gate;
                let old_inputs: Vec<GateId> = self.netlist.try_gate(gate)?.inputs().to_vec();
                self.netlist.replace_with_const(gate, *value)?;
                self.drop_reader_entries(gate, &old_inputs);
                self.relevel_from(&[gate]);
                let mut bwd = old_inputs;
                bwd.push(gate);
                self.invalidate(&[gate], &bwd);
                Ok(None)
            }
            NetlistDelta::Rewire { gate, pin, new_src } => {
                let (gate, pin, new_src) = (*gate, *pin, *new_src);
                let fanin = self.netlist.try_gate(gate)?.inputs().len();
                if new_src.index() >= self.netlist.gate_count() {
                    return Err(NetlistError::UnknownGate(new_src).into());
                }
                if pin >= fanin {
                    return Err(NetlistError::InvalidPin { gate, pin, fanin }.into());
                }
                let old_src = self.netlist.gate(gate).inputs()[pin];
                self.check_acyclic(gate, &[new_src])?;
                self.netlist
                    .reconnect_input(gate, pin, new_src)
                    .expect("validated above");
                self.readers
                    .retain(old_src, |&(r, p)| !(r == gate && p as usize == pin));
                self.readers.append(new_src, (gate, pin as u8));
                self.relevel_from(&[gate]);
                let mut bwd: Vec<GateId> = self.netlist.gate(gate).inputs().to_vec();
                bwd.push(old_src);
                bwd.push(gate);
                self.invalidate(&[gate], &bwd);
                Ok(None)
            }
            NetlistDelta::ReplaceGate { gate, kind, inputs } => {
                let gate = *gate;
                let old_inputs: Vec<GateId> = self.netlist.try_gate(gate)?.inputs().to_vec();
                for &src in inputs {
                    if src.index() >= self.netlist.gate_count() {
                        return Err(NetlistError::UnknownGate(src).into());
                    }
                }
                self.check_acyclic(gate, inputs)?;
                self.netlist.replace_gate(gate, *kind, inputs)?;
                self.drop_reader_entries(gate, &old_inputs);
                for (pin, &src) in inputs.iter().enumerate() {
                    self.readers.append(src, (gate, pin as u8));
                }
                self.relevel_from(&[gate]);
                let mut bwd = old_inputs;
                bwd.extend_from_slice(inputs);
                bwd.push(gate);
                self.invalidate(&[gate], &bwd);
                Ok(None)
            }
        }
    }

    /// Adopts `new_netlist` — the same arena after external edits (the
    /// arena is append-only: gate ids are stable, gates may be rewritten
    /// in place or appended). `diff` is how `new_netlist` differs from
    /// the cache's netlist ([`Netlist::arena_diff`], or what the edit
    /// reported); its gates are seeded, so cached analyses update
    /// incrementally. A `new_netlist` with fewer gates is no append-only
    /// evolution of the arena: the cache starts over and `diff` is not
    /// read. Debug builds check that any other `diff` is the arena diff.
    ///
    /// # Errors
    ///
    /// Returns [`LevelizeError`] if the new frame is cyclic; the cache
    /// is untouched in that case.
    pub fn rebase(&mut self, new_netlist: &Netlist, diff: &ArenaDiff) -> Result<(), LevelizeError> {
        if new_netlist.gate_count() < self.netlist.gate_count() {
            *self = AnalysisCache::new(new_netlist)?;
            return Ok(());
        }
        debug_assert_eq!(
            self.netlist.arena_diff(new_netlist).as_ref(),
            Some(diff),
            "the diff must be the edit's arena diff"
        );
        let topology = new_netlist.topology();
        let level = topology.levelization()?.levels().to_vec();
        let mut fwd = Vec::new();
        let mut bwd = Vec::new();
        for &id in &diff.rewritten {
            fwd.push(id);
            bwd.push(id);
            bwd.extend_from_slice(self.netlist.gate(id).inputs());
            bwd.extend_from_slice(new_netlist.gate(id).inputs());
        }
        for &id in &diff.appended {
            fwd.push(id);
            bwd.push(id);
            bwd.extend_from_slice(new_netlist.gate(id).inputs());
        }
        bwd.extend_from_slice(&diff.outputs);
        self.netlist = new_netlist.clone();
        self.level = level;
        self.readers = topology.readers().clone();
        self.is_output = topology.output_mask().to_vec();
        self.has_storage = !new_netlist.storage_elements().is_empty();
        self.invalidate(&fwd, &bwd);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Analysis accessors (compute or refresh on demand)
    // ------------------------------------------------------------------

    /// SCOAP measures, refreshed incrementally where possible.
    pub fn scoap(&mut self) -> &ScoapResult {
        self.ensure_scoap();
        self.scoap.as_ref().expect("ensured")
    }

    /// The SCOAP result if it is computed *and* exact for the current
    /// netlist — the zero-cost read path concurrent callers (the serve
    /// daemon's read-locked queries) take before falling back to the
    /// `&mut self` refresh.
    #[must_use]
    pub fn scoap_ready(&self) -> Option<&ScoapResult> {
        match self.scoap_dirty {
            Dirty::Clean => self.scoap.as_ref(),
            _ => None,
        }
    }

    /// Structural constants, refreshed incrementally.
    pub fn constants(&mut self) -> &[Logic] {
        self.ensure_constants();
        self.constants.as_deref().expect("ensured")
    }

    /// X-taint witnesses, refreshed incrementally.
    pub fn xprop(&mut self) -> &[XWitness] {
        self.ensure_xprop();
        self.xprop.as_deref().expect("ensured")
    }

    /// Observability dominators (recomputed per edit — the pass is a
    /// single linear sweep, cheaper than tracking its dirty region).
    pub fn dominators(&mut self) -> &Dominators {
        if self.dominators.is_none() {
            let view = self.view();
            self.dominators = Some(Dominators::compute(&view));
        }
        self.dominators.as_ref().expect("just computed")
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn view(&self) -> GraphView<'_> {
        GraphView {
            netlist: &self.netlist,
            level: &self.level,
            readers: &self.readers,
            is_output: &self.is_output,
        }
    }

    fn invalidate(&mut self, fwd: &[GateId], bwd: &[GateId]) {
        self.scoap_dirty.add(fwd, bwd);
        self.constants_dirty.add(fwd, &[]);
        self.xprop_dirty.add(fwd, &[]);
        self.dominators = None;
    }

    /// The levelization formula for one gate, from current levels.
    fn compute_level(&self, id: GateId) -> u32 {
        let g = self.netlist.gate(id);
        if g.kind().is_source() {
            return 0;
        }
        1 + g
            .inputs()
            .iter()
            .map(|&s| {
                if self.netlist.gate(s).kind().is_source() {
                    0
                } else {
                    self.level[s.index()]
                }
            })
            .max()
            .unwrap_or(0)
    }

    /// Worklist re-levelization of the cone reachable from `seeds`.
    fn relevel_from(&mut self, seeds: &[GateId]) {
        let mut queue: VecDeque<GateId> = seeds.iter().copied().collect();
        while let Some(id) = queue.pop_front() {
            let new = self.compute_level(id);
            if new != self.level[id.index()] {
                self.level[id.index()] = new;
                for &(reader, _) in &self.readers[id.index()] {
                    queue.push_back(reader);
                }
            }
        }
    }

    /// Removes every reader entry recording `gate` as a reader of one
    /// of `old_inputs`.
    fn drop_reader_entries(&mut self, gate: GateId, old_inputs: &[GateId]) {
        let mut srcs = old_inputs.to_vec();
        srcs.sort_unstable();
        srcs.dedup();
        for src in srcs {
            self.readers.retain(src, |&(r, _)| r != gate);
        }
    }

    /// Rejects the edit if `gate` reaches any of `new_srcs` through the
    /// combinational frame (adding the edge would close a cycle).
    fn check_acyclic(&self, gate: GateId, new_srcs: &[GateId]) -> Result<(), DeltaError> {
        if self.netlist.gate(gate).kind().is_source() {
            // The gate's own output edge is cut (DFF data rewire etc.):
            // an edge into a source never closes a combinational loop.
            return Ok(());
        }
        let gate_level = self.level[gate.index()];
        // Only non-source drivers at a strictly deeper level can be on a
        // return path (combinational edges strictly increase level).
        let targets: Vec<GateId> = new_srcs
            .iter()
            .copied()
            .filter(|&s| !self.netlist.gate(s).kind().is_source())
            .filter(|&s| s == gate || self.level[s.index()] > gate_level)
            .collect();
        if targets.is_empty() {
            return Ok(());
        }
        if targets.contains(&gate) {
            return Err(DeltaError::WouldCycle {
                gate,
                through: gate,
            });
        }
        let max_level = targets
            .iter()
            .map(|&s| self.level[s.index()])
            .max()
            .expect("nonempty");
        let mut visited = vec![false; self.netlist.gate_count()];
        let mut stack = vec![gate];
        visited[gate.index()] = true;
        while let Some(v) = stack.pop() {
            for &(reader, _) in &self.readers[v.index()] {
                if targets.contains(&reader) {
                    return Err(DeltaError::WouldCycle {
                        gate,
                        through: reader,
                    });
                }
                let ri = reader.index();
                if !visited[ri]
                    && !self.netlist.gate(reader).kind().is_source()
                    && self.level[ri] < max_level
                {
                    visited[ri] = true;
                    stack.push(reader);
                }
            }
        }
        Ok(())
    }

    fn ensure_scoap(&mut self) {
        if self.scoap_dirty.is_clean() && self.scoap.is_some() {
            return;
        }
        let dirty = std::mem::replace(&mut self.scoap_dirty, Dirty::Clean);
        let n = self.netlist.gate_count();
        // Storage feedback makes the SCOAP value graph cyclic; the
        // worklist would chase costs around the loop, so sequential
        // designs always take the full capped relaxation.
        let full = self.has_storage || self.scoap.is_none() || matches!(dirty, Dirty::Full);
        if full {
            let old = self.scoap.take();
            let new = {
                let view = self.view();
                scoap::compute_with(&view, &order_by_level(&self.level))
            };
            // Cross-analysis coupling: a storage element whose
            // controllability changed may have flipped between
            // initializable and not — reseed X-propagation.
            match old {
                Some(old) => {
                    let changed: Vec<GateId> = self
                        .netlist
                        .storage_elements()
                        .into_iter()
                        .filter(|id| {
                            id.index() >= old.cc.len() || old.cc[id.index()] != new.cc[id.index()]
                        })
                        .collect();
                    if !changed.is_empty() {
                        self.xprop_dirty.add(&changed, &[]);
                    }
                }
                None => self.xprop_dirty = Dirty::Full,
            }
            self.scoap = Some(new);
            return;
        }
        let Dirty::Seeds { forward, backward } = dirty else {
            unreachable!("full path handles Clean/Full")
        };
        let mut r = self.scoap.take().expect("checked above");
        r.cc.resize(n, (INFINITE, INFINITE));
        r.co.resize(n, INFINITE);
        let cc_changed = {
            let view = self.view();
            resolve(&Controllability, &view, &mut r.cc, &forward)
        };
        let storage_changed: Vec<GateId> = cc_changed
            .iter()
            .copied()
            .filter(|&id| self.netlist.gate(id).kind().is_storage())
            .collect();
        if !storage_changed.is_empty() {
            self.xprop_dirty.add(&storage_changed, &[]);
        }
        // A controllability change on net x rewrites the observability
        // equation of every *sibling* pin sharing a reader with x (side
        // inputs enter the pin-cost formulas).
        let mut bwd = backward;
        for &x in cc_changed.iter().chain(forward.iter()) {
            for &(reader, _) in &self.readers[x.index()] {
                bwd.extend_from_slice(self.netlist.gate(reader).inputs());
            }
        }
        bwd.sort_unstable();
        bwd.dedup();
        resolve(&Observability { cc: &r.cc }, &self.view(), &mut r.co, &bwd);
        self.scoap = Some(r);
    }

    fn ensure_constants(&mut self) {
        if self.constants_dirty.is_clean() && self.constants.is_some() {
            return;
        }
        let dirty = std::mem::replace(&mut self.constants_dirty, Dirty::Clean);
        let n = self.netlist.gate_count();
        let full = self.constants.is_none() || matches!(dirty, Dirty::Full);
        if full {
            let old = self.constants.take();
            let new = {
                let view = self.view();
                crate::solver::solve(&Constants, &view, &order_by_level(&self.level))
            };
            match old {
                Some(old) => {
                    let changed: Vec<GateId> = (0..old.len().min(n))
                        .filter(|&i| old[i] != new[i])
                        .map(GateId::from_index)
                        .collect();
                    if !changed.is_empty() {
                        self.xprop_dirty.add(&changed, &[]);
                    }
                }
                None => self.xprop_dirty = Dirty::Full,
            }
            self.constants = Some(new);
            return;
        }
        let Dirty::Seeds { forward, .. } = dirty else {
            unreachable!("full path handles Clean/Full")
        };
        let mut vals = self.constants.take().expect("checked above");
        vals.resize(n, Logic::X);
        let changed = {
            let view = self.view();
            resolve(&Constants, &view, &mut vals, &forward)
        };
        if !changed.is_empty() {
            self.xprop_dirty.add(&changed, &[]);
        }
        self.constants = Some(vals);
    }

    fn ensure_xprop(&mut self) {
        // These may push fresh xprop seeds; run them first.
        self.ensure_scoap();
        self.ensure_constants();
        if self.xprop_dirty.is_clean() && self.xprop.is_some() {
            return;
        }
        let dirty = std::mem::replace(&mut self.xprop_dirty, Dirty::Clean);
        let old = self.xprop.take();
        let xp = XProp {
            constants: self.constants.as_ref().expect("ensured"),
            cc: &self.scoap.as_ref().expect("ensured").cc,
        };
        let view = self.view();
        let vals = match (old, dirty) {
            (Some(mut vals), Dirty::Seeds { forward, .. }) => {
                vals.resize(self.netlist.gate_count(), None);
                resolve(&xp, &view, &mut vals, &forward);
                vals
            }
            _ => crate::solver::solve(&xp, &view, &order_by_level(&self.level)),
        };
        self.xprop = Some(vals);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dft_netlist::circuits::{c17, random_combinational};
    use dft_netlist::GateKind;

    fn assert_matches_fresh(cache: &mut AnalysisCache) {
        let mut fresh = AnalysisCache::new(cache.netlist()).unwrap();
        let (a, b) = (cache.scoap().clone(), fresh.scoap().clone());
        assert_eq!(a.cc, b.cc, "cc drifted from from-scratch");
        assert_eq!(a.co, b.co, "co drifted from from-scratch");
        assert_eq!(cache.constants().to_vec(), fresh.constants().to_vec());
        assert_eq!(cache.xprop().to_vec(), fresh.xprop().to_vec());
    }

    #[test]
    fn single_rewire_matches_from_scratch() {
        let n = random_combinational(8, 60, 7);
        let mut cache = AnalysisCache::new(&n).unwrap();
        cache.scoap();
        cache.xprop();
        // Rewire some mid-level gate's pin 0 to a primary input.
        let gate = n
            .ids()
            .find(|&id| !n.gate(id).kind().is_source() && cache.level(id) > 2)
            .unwrap();
        let new_src = n.primary_inputs()[0];
        cache
            .apply(&NetlistDelta::Rewire {
                gate,
                pin: 0,
                new_src,
            })
            .unwrap();
        assert_matches_fresh(&mut cache);
    }

    #[test]
    fn add_and_remove_match_from_scratch() {
        let n = c17();
        let mut cache = AnalysisCache::new(&n).unwrap();
        cache.scoap();
        let a = n.primary_inputs()[0];
        let b = n.primary_inputs()[1];
        let added = cache
            .apply(&NetlistDelta::AddGate {
                kind: GateKind::And,
                inputs: vec![a, b],
            })
            .unwrap()
            .unwrap();
        assert_matches_fresh(&mut cache);
        let victim = cache
            .netlist()
            .ids()
            .find(|&id| !cache.netlist().gate(id).kind().is_source() && id != added)
            .unwrap();
        cache
            .apply(&NetlistDelta::RemoveGate {
                gate: victim,
                value: false,
            })
            .unwrap();
        assert_matches_fresh(&mut cache);
    }

    #[test]
    fn cycle_creating_rewire_is_rejected_and_harmless() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let g1 = n.add_gate(GateKind::Not, &[a]).unwrap();
        let g2 = n.add_gate(GateKind::Not, &[g1]).unwrap();
        n.mark_output(g2, "y").unwrap();
        let mut cache = AnalysisCache::new(&n).unwrap();
        let before = cache.scoap().clone();
        let err = cache
            .apply(&NetlistDelta::Rewire {
                gate: g1,
                pin: 0,
                new_src: g2,
            })
            .unwrap_err();
        assert!(matches!(err, DeltaError::WouldCycle { .. }));
        assert_eq!(
            cache.scoap().clone(),
            before,
            "rejected edit changed nothing"
        );
        assert_eq!(cache.netlist().gate(g1).inputs(), &[a]);
    }

    #[test]
    fn rebase_adopts_external_edits_incrementally() {
        let n = c17();
        let mut cache = AnalysisCache::new(&n).unwrap();
        cache.scoap();
        let mut edited = n.clone();
        let victim = edited
            .ids()
            .find(|&id| !edited.gate(id).kind().is_source())
            .unwrap();
        edited.replace_with_const(victim, true).unwrap();
        cache
            .rebase(&edited, &n.arena_diff(&edited).unwrap())
            .unwrap();
        assert_matches_fresh(&mut cache);
    }

    #[test]
    fn rebase_onto_a_smaller_arena_starts_over() {
        let mut cache = AnalysisCache::new(&c17()).unwrap();
        cache.scoap();
        let mut small = Netlist::new("t");
        let a = small.add_input("a");
        let g = small.add_gate(GateKind::Not, &[a]).unwrap();
        small.mark_output(g, "y").unwrap();
        cache.rebase(&small, &ArenaDiff::default()).unwrap();
        assert_eq!(cache.netlist().gate_count(), small.gate_count());
        assert_matches_fresh(&mut cache);
    }

    #[test]
    fn sequential_designs_fall_back_to_full_scoap() {
        use dft_netlist::circuits::shift_register;
        let n = shift_register(4);
        let mut cache = AnalysisCache::new(&n).unwrap();
        assert!(cache.has_storage());
        cache.scoap();
        // Rewire the first stage's data pin to the serial input's
        // inverse — any edit; the fallback must stay exact.
        let sin = n.find_input("sin").unwrap();
        let stage = n
            .ids()
            .find(|&id| n.gate(id).kind() == GateKind::Dff)
            .unwrap();
        let inv = cache
            .apply(&NetlistDelta::AddGate {
                kind: GateKind::Not,
                inputs: vec![sin],
            })
            .unwrap()
            .unwrap();
        cache
            .apply(&NetlistDelta::Rewire {
                gate: stage,
                pin: 0,
                new_src: inv,
            })
            .unwrap();
        assert_matches_fresh(&mut cache);
    }
}
