//! The D-Algorithm (Roth) — deterministic ATPG with internal-line
//! decisions.
//!
//! Where PODEM enumerates primary-input assignments, the D-Algorithm
//! assigns internal lines: drive the fault effect (D/D̄) toward an output
//! through the *D-frontier*, and justify every required line value
//! through the *J-frontier* (consistency). The paper names it directly:
//! once scan reduces the problem to combinational logic, "techniques such
//! as the D-Algorithm \[93\] … are again viable approaches".
//!
//! The implementation searches on good-machine line values with full
//! forward/backward implication; faulty-machine values are derived
//! forward from the assigned primary inputs by [`FaultyView`], the
//! serial fault simulator's faulty-frame evaluator. Every test it
//! returns is verified by the same evaluator before being reported.

use dft_fault::{Fault, FaultyView};
use dft_implic::ImplicationEngine;
use dft_netlist::{GateId, GateKind, LevelizeError, Netlist, Pin};
use dft_sim::justify::forced_inputs;
use dft_sim::Logic;

use crate::podem::{GenOutcome, PodemConfig, TestCube};

/// Tuning knobs for [`dalg`].
///
/// `#[non_exhaustive]`: construct via [`Default`] and the `with_*`
/// builders so new knobs can be added without breaking downstream
/// crates. A [`PodemConfig`] converts losslessly (`From`) so flows that
/// drive both engines can share one knob set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub struct DalgConfig {
    /// Abort the search after this many backtracks (the D-Algorithm's
    /// internal decision budget is derived from this, scaled ×8 because
    /// its decisions are finer-grained than PODEM's PI flips).
    pub backtrack_limit: u32,
    /// Consult a static implication engine (`dft-implic`): faults it
    /// proves untestable return `Untestable` with zero search, and every
    /// implication fixpoint cross-checks line values against the learned
    /// store, failing branches early.
    pub use_implications: bool,
}

impl Default for DalgConfig {
    fn default() -> Self {
        DalgConfig {
            backtrack_limit: 10_000,
            use_implications: true,
        }
    }
}

impl DalgConfig {
    /// Defaults (same as [`Default`], spelled for builder chains).
    #[must_use]
    pub fn new() -> Self {
        DalgConfig::default()
    }

    /// Sets [`DalgConfig::backtrack_limit`].
    #[must_use]
    pub fn with_backtrack_limit(mut self, backtrack_limit: u32) -> Self {
        self.backtrack_limit = backtrack_limit;
        self
    }

    /// Sets [`DalgConfig::use_implications`].
    #[must_use]
    pub fn with_use_implications(mut self, use_implications: bool) -> Self {
        self.use_implications = use_implications;
        self
    }
}

impl From<PodemConfig> for DalgConfig {
    fn from(c: PodemConfig) -> Self {
        DalgConfig::new()
            .with_backtrack_limit(c.backtrack_limit)
            .with_use_implications(c.use_implications)
    }
}

/// Runs the D-Algorithm for `fault` on a combinational netlist.
///
/// Returns the same [`GenOutcome`] vocabulary as [`crate::podem`]; the
/// two engines are cross-checked in tests (same testable/untestable
/// verdicts on exhaustively-checkable circuits).
///
/// When `config.use_implications` is set, a static implication engine
/// is built for the call. It contributes two prunes: faults it proves
/// untestable return immediately with zero search, and every
/// implication fixpoint cross-checks the assigned line values against
/// the learned store and the static necessities of detection, failing
/// branches early.
///
/// # Errors
///
/// Returns [`LevelizeError`] on combinational cycles.
pub fn dalg(
    netlist: &Netlist,
    fault: Fault,
    config: &DalgConfig,
) -> Result<GenOutcome, LevelizeError> {
    let engine = config
        .use_implications
        .then(|| ImplicationEngine::new(netlist));
    dalg_search(netlist, fault, config, engine.as_ref())
}

fn dalg_search<'n>(
    netlist: &'n Netlist,
    fault: Fault,
    config: &DalgConfig,
    implic: Option<&ImplicationEngine<'n>>,
) -> Result<GenOutcome, LevelizeError> {
    let lv = netlist.levelize()?;
    let view = FaultyView::new(netlist)?;

    // Excite: the activation net's good value must be the complement of
    // the stuck value.
    let activation = match fault.site.pin {
        Pin::Output => fault.site.gate,
        Pin::Input(p) => netlist.gate(fault.site.gate).inputs()[p as usize],
    };

    let mut necessity: Vec<(usize, bool)> = Vec::new();
    if let Some(engine) = implic {
        if engine
            .fault_untestable(fault.site.gate, fault.site.pin, fault.stuck)
            .is_some()
        {
            return Ok(GenOutcome::Untestable);
        }
        necessity = engine
            .query(activation, !fault.stuck)
            .implied
            .iter()
            .map(|l| (l.net.index(), l.value))
            .collect();
    }

    let mut solver = DalgSolver {
        netlist,
        order: lv.order(),
        unknown_state: vec![Logic::X; view.storage().len()],
        view,
        fault,
        budget: i64::from(config.backtrack_limit) * 8,
        implic,
        necessity,
    };
    let n = netlist.gate_count();
    let mut good = vec![Logic::X; n];
    good[activation.index()] = Logic::from(!fault.stuck);

    let found = solver.search(&mut good);
    if solver.budget <= 0 {
        return Ok(GenOutcome::Aborted);
    }
    Ok(match found {
        Some(cube) => GenOutcome::Test(cube),
        None => GenOutcome::Untestable,
    })
}

struct DalgSolver<'a, 'n> {
    netlist: &'n Netlist,
    order: &'n [GateId],
    /// Faulty-frame evaluator for [`DalgSolver::faulty_values`] and
    /// [`DalgSolver::verify`].
    view: FaultyView<'n>,
    /// All-X present state (storage is uncontrollable here).
    unknown_state: Vec<Logic>,
    fault: Fault,
    budget: i64,
    implic: Option<&'a ImplicationEngine<'n>>,
    /// `(net index, good value)` pairs every detecting assignment must
    /// satisfy (the excitation literal's static implication closure).
    necessity: Vec<(usize, bool)>,
}

impl DalgSolver<'_, '_> {
    /// Forward-computes faulty-machine values from the good machine's
    /// primary-input values (X where an input is still unassigned and
    /// the fault effect hasn't fixed them).
    fn faulty_values(&self, good: &[Logic]) -> Vec<Logic> {
        let pis: Vec<Logic> = self
            .netlist
            .primary_inputs()
            .iter()
            .map(|&pi| good[pi.index()])
            .collect();
        self.view
            .eval_logic(&pis, &self.unknown_state, Some(self.fault))
    }

    /// Forward + backward implication on good-machine values.
    /// Returns `false` on contradiction.
    fn imply(&self, good: &mut [Logic]) -> bool {
        loop {
            let mut changed = false;
            // Forward.
            for &id in self.order {
                let gate = self.netlist.gate(id);
                if gate.kind().is_source() {
                    match gate.kind() {
                        GateKind::Const0 => {
                            if good[id.index()] == Logic::One {
                                return false;
                            }
                            good[id.index()] = Logic::Zero;
                        }
                        GateKind::Const1 => {
                            if good[id.index()] == Logic::Zero {
                                return false;
                            }
                            good[id.index()] = Logic::One;
                        }
                        _ => {}
                    }
                    continue;
                }
                let ins: Vec<Logic> = gate.inputs().iter().map(|&s| good[s.index()]).collect();
                let computed = Logic::eval_gate(gate.kind(), &ins);
                let cur = good[id.index()];
                match (computed.to_bool(), cur.to_bool()) {
                    (Some(a), Some(b)) if a != b => return false,
                    (Some(_), None) => {
                        good[id.index()] = computed;
                        changed = true;
                    }
                    _ => {}
                }
            }
            // Backward.
            for idx in (0..self.order.len()).rev() {
                let id = self.order[idx];
                let gate = self.netlist.gate(id);
                if gate.kind().is_source() {
                    continue;
                }
                let Some(out) = good[id.index()].to_bool() else {
                    continue;
                };
                let forced: Vec<(GateId, Logic)> = backward_forced(self.netlist, id, out, good);
                for (src, v) in forced {
                    let cur = good[src.index()];
                    match (cur.to_bool(), v.to_bool()) {
                        (Some(a), Some(b)) if a != b => return false,
                        (None, Some(_)) => {
                            good[src.index()] = v;
                            changed = true;
                        }
                        _ => {}
                    }
                }
            }
            if !changed {
                return self.implication_consistent(good);
            }
        }
    }

    /// Cross-checks a converged implication state against the static
    /// store: a known line value contradicting a learned implication of
    /// another known value (or a necessary condition of detection)
    /// means no completion of this state detects the fault.
    fn implication_consistent(&self, good: &[Logic]) -> bool {
        for &(i, v) in &self.necessity {
            if good[i].to_bool().is_some_and(|b| b != v) {
                return false;
            }
        }
        let Some(engine) = self.implic else {
            return true;
        };
        for (i, g) in good.iter().enumerate() {
            let Some(b) = g.to_bool() else { continue };
            for l in engine.learned_edges(GateId::from_index(i), b) {
                if good[l.net.index()].to_bool().is_some_and(|x| x != l.value) {
                    return false;
                }
            }
        }
        true
    }

    /// Nets whose assigned good value is not yet implied by their inputs.
    fn unjustified(&self, good: &[Logic]) -> Vec<GateId> {
        let mut out = Vec::new();
        for (id, gate) in self.netlist.iter() {
            if gate.kind().is_source() || !good[id.index()].is_known() {
                continue;
            }
            let ins: Vec<Logic> = gate.inputs().iter().map(|&s| good[s.index()]).collect();
            if !Logic::eval_gate(gate.kind(), &ins).is_known() {
                out.push(id);
            }
        }
        out
    }

    fn search(&mut self, good: &mut [Logic]) -> Option<TestCube> {
        self.budget -= 1;
        if self.budget <= 0 {
            return None;
        }
        if !self.imply(good) {
            return None;
        }
        let faulty = self.faulty_values(good);

        // Success: fault effect at a PO and everything justified.
        let at_po = self.netlist.primary_outputs().iter().any(|&(g, _)| {
            matches!(
                (good[g.index()].to_bool(), faulty[g.index()].to_bool()),
                (Some(a), Some(b)) if a != b
            )
        });
        let unjust = self.unjustified(good);
        if at_po && unjust.is_empty() {
            let cube = TestCube {
                assignment: self
                    .netlist
                    .primary_inputs()
                    .iter()
                    .map(|&pi| good[pi.index()])
                    .collect(),
            };
            if self.verify(&cube) {
                return Some(cube);
            }
            return None;
        }

        // Justify pending line values first (consistency).
        if let Some(&g) = unjust.first() {
            let gate = self.netlist.gate(g);
            let out = good[g.index()]
                .to_bool()
                .expect("unjustified lines are known");
            for choice in justification_choices(gate.kind(), gate.fanin(), out) {
                let mut trial = good.to_vec();
                let mut ok = true;
                for (pin, v) in &choice {
                    let src = gate.inputs()[*pin];
                    match trial[src.index()].to_bool() {
                        Some(b) if b != *v => {
                            ok = false;
                            break;
                        }
                        _ => trial[src.index()] = Logic::from(*v),
                    }
                }
                if !ok {
                    continue;
                }
                if let Some(t) = self.search(&mut trial) {
                    return Some(t);
                }
            }
            return None;
        }

        // Propagate the fault effect: D-frontier decisions.
        let frontier: Vec<GateId> = self
            .netlist
            .iter()
            .filter(|(id, gate)| {
                // The effect can still pass while either component of the
                // output remains unknown (good may already be fixed by a
                // side path while faulty is undecided, or vice versa).
                !gate.kind().is_source()
                    && (!good[id.index()].is_known() || !faulty[id.index()].is_known())
                    && gate.inputs().iter().enumerate().any(|(p, &s)| {
                        let gv = good[s.index()];
                        let fv = if self.fault.site.gate == *id
                            && self.fault.site.pin == Pin::Input(p as u8)
                        {
                            Logic::from(self.fault.stuck)
                        } else {
                            faulty[s.index()]
                        };
                        matches!(
                            (gv.to_bool(), fv.to_bool()),
                            (Some(a), Some(b)) if a != b
                        )
                    })
            })
            .map(|(id, _)| id)
            .collect();
        if frontier.is_empty() {
            // No solid D anywhere — but with X values in the faulty
            // machine the effect may merely be *latent* (reconvergent
            // fault cones keep side values unknown until more inputs are
            // assigned). Only a fully known, difference-free state
            // refutes this assignment outright.
            let latent = self.netlist.ids().any(|id| {
                let i = id.index();
                match (good[i].to_bool(), faulty[i].to_bool()) {
                    (Some(a), Some(b)) => a != b,
                    _ => true,
                }
            });
            if latent {
                return self.branch_on_free_pi(good);
            }
            return None;
        }
        for g in frontier {
            let gate = self.netlist.gate(g);
            let mut base = good.to_vec();
            let mut ok = true;
            let mut assigned_any = false;
            // X side pins of an XOR-family gate: either polarity lets the
            // effect through (it merely inverts it), but downstream
            // consistency may require a specific one — branch over them.
            let mut xor_free: Vec<GateId> = Vec::new();
            for (p, &s) in gate.inputs().iter().enumerate() {
                let is_d_pin = {
                    let gv = good[s.index()];
                    let fv = if self.fault.site.gate == g
                        && self.fault.site.pin == Pin::Input(p as u8)
                    {
                        Logic::from(self.fault.stuck)
                    } else {
                        faulty[s.index()]
                    };
                    matches!((gv.to_bool(), fv.to_bool()), (Some(a), Some(b)) if a != b)
                };
                if is_d_pin {
                    continue;
                }
                match gate.kind().controlling_value() {
                    Some(c) => match base[s.index()].to_bool() {
                        Some(b) if b == c => {
                            // Controlling side value: the effect cannot
                            // pass through this gate.
                            ok = false;
                            break;
                        }
                        Some(_) => {}
                        None => {
                            base[s.index()] = Logic::from(!c);
                            assigned_any = true;
                        }
                    },
                    None => {
                        if base[s.index()].to_bool().is_none() && !xor_free.contains(&s) {
                            xor_free.push(s);
                        }
                    }
                }
            }
            if !ok {
                continue;
            }
            // A decision that assigns nothing recurses on an identical
            // state (the faulty side of this gate is X through a side
            // path): it can never make progress and previously descended
            // until the stack overflowed. Skip it — other frontier gates
            // or choices may still propagate the effect.
            if !assigned_any && xor_free.is_empty() {
                continue;
            }
            // Enumerate the XOR side-pin polarities (capped: beyond 6
            // free pins fall back to all-zeros only).
            let combos = if xor_free.len() <= 6 {
                1u32 << xor_free.len()
            } else {
                1
            };
            for combo in 0..combos {
                let mut trial = base.clone();
                for (k, &s) in xor_free.iter().enumerate() {
                    trial[s.index()] = Logic::from(combo >> k & 1 == 1);
                }
                if let Some(t) = self.search(&mut trial) {
                    return Some(t);
                }
            }
        }
        // Internal-line decisions are exhausted without success. That
        // refutes this prefix only when the faulty machine is fully
        // known: with X values on reconvergent side paths, the frontier
        // (and the controlling-value blocks above) under-approximates
        // what further input assignments could enable — a gate whose
        // good-side pin is controlling can still pass the effect as a
        // good-known / faulty-different pair once its faulty X side
        // resolves. Fall back to branching a free primary input; with
        // none left the refutation is exact.
        self.branch_on_free_pi(good)
    }

    /// Last-resort decision: assign a free primary input both ways. The
    /// internal-line decision space is exhausted (or vacuous) but X
    /// values on faulty-machine side paths can only be resolved from the
    /// inputs; this keeps the engine as complete as PODEM's input-space
    /// search. Depth is bounded by the primary-input count.
    fn branch_on_free_pi(&mut self, good: &[Logic]) -> Option<TestCube> {
        let free = self
            .netlist
            .primary_inputs()
            .iter()
            .copied()
            .find(|&pi| !good[pi.index()].is_known())?;
        for v in [false, true] {
            let mut trial = good.to_vec();
            trial[free.index()] = Logic::from(v);
            if let Some(t) = self.search(&mut trial) {
                return Some(t);
            }
        }
        None
    }

    /// Independent forward verification of a candidate cube.
    fn verify(&self, cube: &TestCube) -> bool {
        let good = self
            .view
            .eval_logic(&cube.assignment, &self.unknown_state, None);
        let faulty = self
            .view
            .eval_logic(&cube.assignment, &self.unknown_state, Some(self.fault));
        self.netlist.primary_outputs().iter().any(|&(g, _)| {
            matches!(
                (good[g.index()].to_bool(), faulty[g.index()].to_bool()),
                (Some(a), Some(b)) if a != b
            )
        })
    }
}

/// Input assignments *forced* by a known gate output (backward
/// implication), mapped from the shared pin-level tables in
/// [`dft_sim::justify`] — the same rules the static implication engine
/// in `dft-implic` propagates, so search and static analysis cannot
/// drift apart.
fn backward_forced(
    netlist: &Netlist,
    id: GateId,
    out: bool,
    good: &[Logic],
) -> Vec<(GateId, Logic)> {
    let gate = netlist.gate(id);
    let ins: Vec<Logic> = gate.inputs().iter().map(|&s| good[s.index()]).collect();
    forced_inputs(gate.kind(), out, &ins)
        .into_iter()
        .map(|(pin, v)| (gate.inputs()[pin], v))
        .collect()
}

/// Enumerates the input assignments that justify `out` at a gate of
/// `kind` with `fanin` inputs. Each choice is a list of `(pin, value)`
/// requirements.
fn justification_choices(kind: GateKind, fanin: usize, out: bool) -> Vec<Vec<(usize, bool)>> {
    match kind {
        GateKind::Buf => vec![vec![(0, out)]],
        GateKind::Not => vec![vec![(0, !out)]],
        GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor => {
            let c = kind.controlling_value().expect("AND/OR family");
            let inv = kind.inverts();
            let controlled_out = c != inv; // output when some input = c
            if out == controlled_out {
                // One controlling input suffices: one choice per pin.
                (0..fanin).map(|p| vec![(p, c)]).collect()
            } else {
                // All inputs noncontrolling.
                vec![(0..fanin).map(|p| (p, !c)).collect()]
            }
        }
        GateKind::Xor | GateKind::Xnor => {
            // All input combinations of the right parity.
            let want = out != (kind == GateKind::Xnor);
            let mut choices = Vec::new();
            for bits in 0..1u32 << fanin {
                let parity = (bits.count_ones() % 2) == 1;
                if parity == want {
                    choices.push((0..fanin).map(|p| (p, bits >> p & 1 == 1)).collect());
                }
            }
            choices
        }
        _ => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::podem::{podem, PodemConfig};
    use dft_fault::{simulate, universe};
    use dft_netlist::circuits::{c17, full_adder, majority};
    use dft_sim::PatternSet;

    fn cross_check(netlist: &Netlist) {
        let cfg = PodemConfig::default();
        for f in universe(netlist) {
            let d = dalg(netlist, f, &DalgConfig::from(cfg)).unwrap();
            let p = podem(netlist, f, &cfg).unwrap();
            match (&d, &p) {
                (GenOutcome::Test(cube), GenOutcome::Test(_)) => {
                    let row = cube.filled(false);
                    let set = PatternSet::from_rows(row.len(), &[row]);
                    let r = simulate(netlist, &set, &[f]).unwrap();
                    assert_eq!(r.first_detected[0], Some(0), "dalg cube fails for {f}");
                }
                (GenOutcome::Untestable, GenOutcome::Untestable) => {}
                other => panic!("engines disagree on {f}: {other:?}"),
            }
        }
    }

    #[test]
    fn agrees_with_podem_on_c17() {
        cross_check(&c17());
    }

    #[test]
    fn agrees_with_podem_on_full_adder() {
        cross_check(&full_adder());
    }

    #[test]
    fn agrees_with_podem_on_majority() {
        cross_check(&majority());
    }

    #[test]
    fn agrees_with_podem_on_random_logic() {
        cross_check(&dft_netlist::circuits::random_combinational(7, 25, 5));
    }

    #[test]
    fn justification_choice_tables() {
        // AND out=1 → single choice, all pins 1.
        let ch = justification_choices(GateKind::And, 3, true);
        assert_eq!(ch, vec![vec![(0, true), (1, true), (2, true)]]);
        // AND out=0 → one choice per pin.
        let ch = justification_choices(GateKind::And, 2, false);
        assert_eq!(ch.len(), 2);
        // XOR out=1 with 2 inputs → two odd-parity rows.
        let ch = justification_choices(GateKind::Xor, 2, true);
        assert_eq!(ch.len(), 2);
        // NOT inverts.
        assert_eq!(
            justification_choices(GateKind::Not, 1, true),
            vec![vec![(0, false)]]
        );
    }
}
