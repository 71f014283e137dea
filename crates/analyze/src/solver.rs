//! The monotone-framework core: the [`Analysis`] trait and the two
//! solvers (full sweep-to-fixpoint and worklist re-solve).
//!
//! An analysis assigns every net (identified by its driving gate) a
//! lattice value. The [`Analysis::transfer`] function recomputes one
//! gate's value from the current assignment; it folds the classic
//! `join ∘ flow` composition into a single call because on a gate-level
//! netlist the join points *are* the gates (a gate joins over its input
//! pins, an observability value joins over its reader pins).
//!
//! Two solving strategies share every transfer function:
//!
//! * [`solve`] / [`solve_capped`] — Gauss–Seidel sweeps over a
//!   topological order (forward) or its reverse (backward), iterated to
//!   a fixpoint. This is bit-compatible with the legacy relaxation loops
//!   in `dft-testability` and `dft-lint`, including their iteration
//!   caps on storage feedback.
//! * [`resolve`] — a level-prioritized worklist seeded with the dirty
//!   region after a [`crate::NetlistDelta`]. On an acyclic value graph
//!   the fixpoint is unique, so the worklist result is bit-identical to
//!   a from-scratch solve — the property the randomized-edit proptests
//!   pin down.

use std::collections::BinaryHeap;

use dft_netlist::{GateId, LevelizeError, Netlist, Readers};

/// Which way values flow through the netlist.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Values flow from sources to outputs; a gate's value depends on
    /// its input pins (controllability, constants, X-taint).
    Forward,
    /// Values flow from outputs to sources; a net's value depends on
    /// the gates reading it (observability).
    Backward,
}

/// A read-only structural view of one netlist, shared by every analysis.
///
/// [`GraphView::of`] borrows the netlist's memoized
/// [`dft_netlist::Topology`]; an [`crate::AnalysisCache`] instead points
/// the view at its own copy of that structure, which it edits in place
/// across deltas. Either way transfer functions never recompute
/// structure.
#[derive(Clone, Copy)]
pub struct GraphView<'a> {
    /// The netlist under analysis.
    pub netlist: &'a Netlist,
    /// Combinational level per gate (sources at 0).
    pub level: &'a [u32],
    /// `(reader, pin)` pairs per driving gate.
    pub readers: &'a Readers,
    /// Whether each gate drives at least one primary output.
    pub is_output: &'a [bool],
}

impl<'a> GraphView<'a> {
    /// The view of `netlist`'s [`Netlist::topology`], with its
    /// levelized sweep order.
    ///
    /// # Errors
    ///
    /// Returns [`LevelizeError`] if the combinational frame has a cycle.
    pub fn of(netlist: &'a Netlist) -> Result<(Self, &'a [GateId]), LevelizeError> {
        let topology = netlist.topology();
        let lv = topology.levelization()?;
        let view = GraphView {
            netlist,
            level: lv.levels(),
            readers: topology.readers(),
            is_output: topology.output_mask(),
        };
        Ok((view, lv.order()))
    }
}

/// A monotone dataflow analysis over the combinational frame.
pub trait Analysis {
    /// The lattice value stored per net.
    type Value: Clone + PartialEq;

    /// Short name for diagnostics.
    fn name(&self) -> &'static str;

    /// Flow direction; decides sweep order and worklist priority.
    fn direction(&self) -> Direction;

    /// The initial (pre-relaxation) value every net starts from — the
    /// lattice top for a descending fixpoint computation.
    fn initial(&self) -> Self::Value;

    /// Recomputes the value of `id` from the current assignment.
    ///
    /// Must be monotone in `values` and must depend only on gates
    /// adjacent to `id` (inputs for forward analyses, readers for
    /// backward ones) plus per-gate facts in `view` — the worklist
    /// solver relies on that locality to know what to re-enqueue.
    fn transfer(&self, view: &GraphView<'_>, id: GateId, values: &[Self::Value]) -> Self::Value;
}

/// Solves `analysis` from scratch by Gauss–Seidel sweeps to a fixpoint.
///
/// `order` must be a topological order of the combinational frame
/// (sweeps run forward over it, or backward for backward analyses).
pub fn solve<A: Analysis>(analysis: &A, view: &GraphView<'_>, order: &[GateId]) -> Vec<A::Value> {
    let mut iterations = 0;
    solve_capped(analysis, view, order, &mut iterations, u32::MAX)
}

/// Like [`solve`], but shares an iteration counter with the caller and
/// stops after `cap` total sweeps even if not converged — mirroring the
/// legacy SCOAP relaxation loops, which bound work on storage feedback.
///
/// `iterations` is incremented once per sweep; the loop exits when a
/// sweep changes nothing or `*iterations > cap`.
pub fn solve_capped<A: Analysis>(
    analysis: &A,
    view: &GraphView<'_>,
    order: &[GateId],
    iterations: &mut u32,
    cap: u32,
) -> Vec<A::Value> {
    let n = view.netlist.gate_count();
    let mut values = vec![analysis.initial(); n];
    let forward = analysis.direction() == Direction::Forward;
    loop {
        *iterations += 1;
        let mut changed = false;
        for pos in 0..order.len() {
            let id = if forward {
                order[pos]
            } else {
                order[order.len() - 1 - pos]
            };
            let v = analysis.transfer(view, id, &values);
            if v != values[id.index()] {
                values[id.index()] = v;
                changed = true;
            }
        }
        if !changed || *iterations > cap {
            break;
        }
    }
    values
}

/// Re-solves `analysis` in place from a dirty seed set after an edit.
///
/// Every seed is unconditionally re-evaluated; whenever a value changes
/// the affected neighbors (readers for forward analyses, input drivers
/// for backward ones) are enqueued. The worklist is prioritized by
/// combinational level — ascending for forward flows, descending for
/// backward — so on an acyclic value graph each gate is recomputed at
/// most a handful of times and the result equals the from-scratch
/// fixpoint exactly.
///
/// Callers must pass seeds covering every gate whose *transfer equation*
/// changed (new/changed structure, changed cross-analysis facts);
/// value-change propagation from there is the solver's job.
///
/// Returns the ids whose value actually changed (unordered, deduped).
///
/// # Panics
///
/// Panics if `values` is not sized to the netlist (the cache resizes
/// before calling).
pub fn resolve<A: Analysis>(
    analysis: &A,
    view: &GraphView<'_>,
    values: &mut [A::Value],
    seeds: &[GateId],
) -> Vec<GateId> {
    let n = view.netlist.gate_count();
    assert_eq!(values.len(), n, "value vector must match the gate arena");
    let forward = analysis.direction() == Direction::Forward;
    // Priority = (level, index), flipped for forward flows so that the
    // max-heap pops the shallowest gate first.
    let key = |idx: usize| -> (u32, usize) {
        if forward {
            (u32::MAX - view.level[idx], usize::MAX - idx)
        } else {
            (view.level[idx], idx)
        }
    };
    let mut queued = vec![false; n];
    let mut heap: BinaryHeap<((u32, usize), usize)> = BinaryHeap::new();
    for &s in seeds {
        let i = s.index();
        if i < n && !queued[i] {
            queued[i] = true;
            heap.push((key(i), i));
        }
    }
    let mut changed_mark = vec![false; n];
    let mut changed = Vec::new();
    while let Some((_, idx)) = heap.pop() {
        queued[idx] = false;
        let id = GateId::from_index(idx);
        let v = analysis.transfer(view, id, values);
        if v == values[idx] {
            continue;
        }
        values[idx] = v;
        if !changed_mark[idx] {
            changed_mark[idx] = true;
            changed.push(id);
        }
        match analysis.direction() {
            Direction::Forward => {
                for &(reader, _) in &view.readers[idx] {
                    let r = reader.index();
                    if !queued[r] {
                        queued[r] = true;
                        heap.push((key(r), r));
                    }
                }
            }
            Direction::Backward => {
                for &src in view.netlist.gate(id).inputs() {
                    let s = src.index();
                    if !queued[s] {
                        queued[s] = true;
                        heap.push((key(s), s));
                    }
                }
            }
        }
    }
    changed
}

/// Ids ordered by `(level, index)` — a valid topological order of the
/// combinational frame, since every combinational edge strictly
/// increases level.
#[must_use]
pub fn order_by_level(level: &[u32]) -> Vec<GateId> {
    let mut ids: Vec<GateId> = (0..level.len()).map(GateId::from_index).collect();
    ids.sort_by_key(|id| (level[id.index()], id.index()));
    ids
}
