//! Structural fault collapsing: equivalence and dominance.
//!
//! §I-B of the paper: "Some reduction in the number of single stuck-at
//! faults can be achieved by fault equivalencing … the number of single
//! stuck-at faults needed to be assumed is about 3000" (from 6000 for a
//! 1000-gate network). These are the classic structural rules:
//!
//! * controlling-input equivalence — an AND input s-a-0 is equivalent to
//!   the AND output s-a-0 (NAND: output s-a-1; OR: output s-a-1;
//!   NOR: output s-a-0);
//! * inverter/buffer equivalence — the input fault maps through the gate;
//! * fanout-free stems — a driver's output fault is equivalent to the
//!   sole reader's input fault.
//!
//! The rules are written once, in [`for_each_equivalence`]; the
//! materialized [`collapse`] and the streaming
//! [`CollapsedUniverse`](crate::stream::CollapsedUniverse) both run them
//! through the same [`UnionFind`].

use std::collections::HashMap;

use dft_netlist::{GateId, GateKind, LevelizeError, Netlist, Pin, PortRef};
use dft_sim::PatternSet;

use crate::Fault;

/// The result of collapsing a fault universe.
#[derive(Clone, Debug)]
pub struct Collapse {
    faults: Vec<Fault>,
    /// For each fault index, the index of its class representative.
    rep_of: Vec<usize>,
    /// Indices of the representatives, in universe order.
    reps: Vec<usize>,
}

impl Collapse {
    /// The original universe this collapse was computed over.
    #[must_use]
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// The representative fault of `fault_index`'s equivalence class.
    ///
    /// # Panics
    ///
    /// Panics if `fault_index` is out of range.
    #[must_use]
    pub fn representative(&self, fault_index: usize) -> Fault {
        self.faults[self.rep_of[fault_index]]
    }

    /// One fault per equivalence class, in universe order.
    #[must_use]
    pub fn representatives(&self) -> Vec<Fault> {
        self.reps.iter().map(|&i| self.faults[i]).collect()
    }

    /// Number of equivalence classes.
    #[must_use]
    pub fn class_count(&self) -> usize {
        self.reps.len()
    }

    /// The collapse ratio `classes / universe` (the paper's 1000-gate
    /// example lands near 0.5).
    #[must_use]
    pub fn ratio(&self) -> f64 {
        if self.faults.is_empty() {
            1.0
        } else {
            self.reps.len() as f64 / self.faults.len() as f64
        }
    }

    /// Expands per-representative detection flags back over the whole
    /// universe: a fault is detected iff its representative is.
    ///
    /// # Panics
    ///
    /// Panics if `detected.len()` differs from
    /// [`Collapse::class_count`].
    #[must_use]
    pub fn expand_detection(&self, detected: &[bool]) -> Vec<bool> {
        assert_eq!(detected.len(), self.reps.len());
        let class_index: HashMap<usize, usize> = self
            .reps
            .iter()
            .enumerate()
            .map(|(k, &rep)| (rep, k))
            .collect();
        self.rep_of
            .iter()
            .map(|&rep| detected[class_index[&rep]])
            .collect()
    }
}

/// A flat union-find over fault indices. Each union keeps the smaller
/// root, so every class root is the class's minimum index whatever the
/// union order.
pub(crate) struct UnionFind {
    parent: Vec<u32>,
}

impl UnionFind {
    /// `n` singleton classes.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds the `u32` index space.
    pub(crate) fn new(n: usize) -> Self {
        let n = u32::try_from(n).expect("fault universe exceeds u32 index space");
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    pub(crate) fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            self.parent[x as usize] = self.parent[self.parent[x as usize] as usize];
            x = self.parent[x as usize];
        }
        x
    }

    pub(crate) fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.parent[hi as usize] = lo;
        }
    }
}

/// The per-gate structural facts the equivalence rules read, from one
/// flat pass over the fan-in lists: fan-out edge count, the sole
/// `(reader, pin)` edge of a single-fanout driver, and primary-output
/// membership.
pub(crate) struct Census {
    fan_count: Vec<u32>,
    sole_reader: Vec<(GateId, u8)>,
    is_po: Vec<bool>,
}

impl Census {
    pub(crate) fn new(netlist: &Netlist) -> Self {
        let mut fan_count = vec![0u32; netlist.gate_count()];
        let mut sole_reader = vec![(GateId::from_index(0), 0u8); netlist.gate_count()];
        for (id, gate) in netlist.iter() {
            for (pin, &src) in gate.inputs().iter().enumerate() {
                fan_count[src.index()] += 1;
                sole_reader[src.index()] = (id, u8::try_from(pin).expect("pin fits u8"));
            }
        }
        let mut is_po = vec![false; netlist.gate_count()];
        for &(g, _) in netlist.primary_outputs() {
            is_po[g.index()] = true;
        }
        Census {
            fan_count,
            sole_reader,
            is_po,
        }
    }
}

/// Calls `merge(a, b)` for every pair of faults the three structural
/// equivalence rules declare equivalent. Pairs are named whether or not
/// the caller's universe holds both faults; the caller skips the rest.
pub(crate) fn for_each_equivalence(
    netlist: &Netlist,
    census: &Census,
    mut merge: impl FnMut(Fault, Fault),
) {
    for (id, gate) in netlist.iter() {
        // Rule 1: controlling-value equivalence through the gate.
        if let Some(c) = gate.kind().controlling_value() {
            let out = Fault {
                site: PortRef::output(id),
                stuck: c != gate.kind().inverts(),
            };
            for pin in 0..gate.fanin() {
                let input = Fault {
                    site: PortRef::input(id, pin as u8),
                    stuck: c,
                };
                merge(input, out);
            }
        }
        // Rule 2: single-input gates map both polarities through.
        if matches!(gate.kind(), GateKind::Buf | GateKind::Not) {
            let flip = gate.kind() == GateKind::Not;
            for v in [false, true] {
                let input = Fault {
                    site: PortRef::input(id, 0),
                    stuck: v,
                };
                let out = Fault {
                    site: PortRef::output(id),
                    stuck: v != flip,
                };
                merge(input, out);
            }
        }
        // Rule 3: fanout-free stem — driver output fault ≡ sole reader's
        // input fault (unless the stem is also observed as a primary
        // output, where the faults differ in observability).
        if census.fan_count[id.index()] == 1 && !census.is_po[id.index()] {
            let (reader, pin) = census.sole_reader[id.index()];
            for v in [false, true] {
                let stem = Fault {
                    site: PortRef::output(id),
                    stuck: v,
                };
                let branch = Fault {
                    site: PortRef::input(reader, pin),
                    stuck: v,
                };
                merge(stem, branch);
            }
        }
    }
}

/// Collapses `faults` over `netlist` by structural equivalence.
///
/// Faults not present in the list are ignored (you may collapse a
/// sub-universe). Representatives are chosen deterministically (smallest
/// universe index per class).
#[must_use]
pub fn collapse(netlist: &Netlist, faults: &[Fault]) -> Collapse {
    collapse_with(netlist, faults, &Census::new(netlist))
}

fn collapse_with(netlist: &Netlist, faults: &[Fault], census: &Census) -> Collapse {
    let mut uf = UnionFind::new(faults.len());
    let index: HashMap<Fault, u32> = faults.iter().zip(0u32..).map(|(&f, i)| (f, i)).collect();
    for_each_equivalence(netlist, census, |a, b| {
        if let (Some(&ia), Some(&ib)) = (index.get(&a), index.get(&b)) {
            uf.union(ia, ib);
        }
    });

    let rep_of: Vec<usize> = (0..faults.len())
        .map(|i| uf.find(i as u32) as usize)
        .collect();
    let mut reps: Vec<usize> = rep_of.clone();
    reps.sort_unstable();
    reps.dedup();
    Collapse {
        faults: faults.to_vec(),
        rep_of,
        reps,
    }
}

/// The result of dominance reduction on top of equivalence collapsing,
/// mirroring [`Collapse`]: the reduced target list plus a per-fault
/// mapping back onto it.
///
/// For an AND/NAND (resp. OR/NOR) gate, the output
/// s-a-noncontrolled-response fault dominates every input
/// s-a-noncontrolling fault — any test for the input fault also detects
/// it — so it is dropped from the target list. Unlike equivalence,
/// dominance is one-directional: the dominator can also be detected by
/// patterns that miss every dominated *witness* (e.g. two controlling
/// inputs at once), so per-fault detection equality is not preserved.
#[derive(Clone, Debug)]
pub struct DominanceCollapse {
    eq: Collapse,
    targets: Vec<Fault>,
    /// Universe index → target index, resolved through equivalence and
    /// then (for dropped dominators) recursively through a dominated
    /// witness; `None` when no witness exists in the universe.
    target_of: Vec<Option<usize>>,
}

impl DominanceCollapse {
    /// The original universe the reduction was computed over.
    #[must_use]
    pub fn faults(&self) -> &[Fault] {
        self.eq.faults()
    }

    /// The reduced test-generation target list, in universe order.
    #[must_use]
    pub fn targets(&self) -> &[Fault] {
        &self.targets
    }

    /// Number of targets after equivalence + dominance.
    #[must_use]
    pub fn target_count(&self) -> usize {
        self.targets.len()
    }

    /// `targets / universe` (compare [`Collapse::ratio`]).
    #[must_use]
    pub fn ratio(&self) -> f64 {
        if self.eq.faults().is_empty() {
            1.0
        } else {
            self.targets.len() as f64 / self.eq.faults().len() as f64
        }
    }

    /// The target standing in for `fault_index`: its equivalence
    /// representative if that survived, otherwise a dominated witness
    /// whose detection implies the dominator's (resolved recursively).
    /// `None` when the dropped dominator has no witness in the universe —
    /// such a fault is *not* accounted for by this reduction.
    ///
    /// # Panics
    ///
    /// Panics if `fault_index` is out of range.
    #[must_use]
    pub fn target_of(&self, fault_index: usize) -> Option<Fault> {
        self.target_of[fault_index].map(|t| self.targets[t])
    }

    /// Expands per-target detection flags over the whole universe.
    ///
    /// Crediting through a witness is sound — dominance guarantees any
    /// pattern detecting the witness also detects its dominator — so
    /// every fault this marks `true` really is detected. The `false`
    /// verdicts on dominator classes, however, are *approximate*: a
    /// dominator detected only by patterns that miss every witness (two
    /// controlling inputs at once), or one whose witnesses are all
    /// redundant (`None` mapping), is reported `false` here even when
    /// the pattern set detects it. Use
    /// [`DominanceCollapse::expand_detection_exact`] when the exact
    /// universe figure matters — it rechecks exactly those uncertain
    /// verdicts with targeted single-fault simulations.
    ///
    /// # Panics
    ///
    /// Panics if `detected.len()` differs from
    /// [`DominanceCollapse::target_count`].
    #[must_use]
    pub fn expand_detection(&self, detected: &[bool]) -> Vec<bool> {
        assert_eq!(detected.len(), self.targets.len());
        self.target_of
            .iter()
            .map(|t| t.is_some_and(|k| detected[k]))
            .collect()
    }

    /// [`DominanceCollapse::expand_detection`] with every uncertain
    /// verdict resolved by a targeted recheck: the *exact* per-fault
    /// detection of `patterns` over the whole universe.
    ///
    /// `detected` must be the per-target detection of
    /// [`DominanceCollapse::targets`] under the same `patterns`
    /// (`first_detected[k].is_some()` from any engine — the engines are
    /// cross-checked to agree).
    ///
    /// Three kinds of verdicts come out of the witness expansion:
    ///
    /// * the fault's equivalence representative survived as a target —
    ///   exact either way (equivalent faults are detected by exactly the
    ///   same patterns);
    /// * witness-credited `true` — sound by the dominance theorem, so
    ///   exact;
    /// * a dominator class reported `false` (witness undetected, or no
    ///   witness in the universe) — *uncertain*: the dominator can be
    ///   detected by patterns that miss every witness.
    ///
    /// Only the third kind is rechecked, one fault simulation per
    /// uncertain equivalence class, so the cost is proportional to the
    /// coverage gap rather than the universe size.
    ///
    /// # Errors
    ///
    /// Returns [`LevelizeError`] on combinational cycles.
    ///
    /// # Panics
    ///
    /// Panics if `detected.len()` differs from
    /// [`DominanceCollapse::target_count`] or the pattern width
    /// disagrees with the netlist.
    pub fn expand_detection_exact(
        &self,
        netlist: &Netlist,
        patterns: &PatternSet,
        detected: &[bool],
    ) -> Result<Vec<bool>, LevelizeError> {
        let mut out = self.expand_detection(detected);
        let target_set: std::collections::HashSet<Fault> = self.targets.iter().copied().collect();
        // One recheck per uncertain equivalence class, keyed by its
        // representative.
        let mut recheck_of: HashMap<Fault, usize> = HashMap::new();
        let mut recheck: Vec<Fault> = Vec::new();
        let mut members: Vec<(usize, usize)> = Vec::new(); // (universe idx, recheck idx)
        for (i, credited) in out.iter().enumerate() {
            if *credited {
                continue; // sound by dominance (or exact via the target)
            }
            let rep = self.eq.representative(i);
            if target_set.contains(&rep) {
                continue; // exact: the class was simulated directly
            }
            let k = *recheck_of.entry(rep).or_insert_with(|| {
                recheck.push(rep);
                recheck.len() - 1
            });
            members.push((i, k));
        }
        if !recheck.is_empty() {
            let r = crate::ppsfp(netlist, patterns, &recheck)?;
            for (i, k) in members {
                out[i] = r.first_detected[k].is_some();
            }
        }
        Ok(out)
    }
}

/// Dominance-based reduction on top of equivalence; see
/// [`DominanceCollapse`].
#[must_use]
pub fn dominance_collapse(netlist: &Netlist, faults: &[Fault]) -> DominanceCollapse {
    let census = Census::new(netlist);
    let eq = collapse_with(netlist, faults, &census);
    let dropped = |f: Fault| -> bool {
        // Drop gate-output faults that dominate their input faults: for
        // an AND gate, output s-a-1 is detected whenever any input
        // s-a-1 is.
        let gate = netlist.gate(f.site.gate);
        if f.site.pin != Pin::Output {
            return false;
        }
        let Some(c) = gate.kind().controlling_value() else {
            return false;
        };
        let dominated_by_inputs = f.stuck == (c == gate.kind().inverts());
        dominated_by_inputs && !census.is_po[f.site.gate.index()] && gate.fanin() > 0
    };

    let mut targets: Vec<Fault> = Vec::new();
    let mut target_index: HashMap<Fault, usize> = HashMap::new();
    for f in eq.representatives() {
        if !dropped(f) {
            target_index.insert(f, targets.len());
            targets.push(f);
        }
    }

    // Witness resolution for dropped dominators: an input-pin fault at
    // the non-controlling stuck value whose detection implies the
    // dominator's. The witness's own representative may itself be a
    // dropped dominator of an earlier gate (fanout-free stems merge a
    // driver's output fault into the reader's input fault), so resolve
    // recursively — strictly toward the primary inputs, hence finite.
    let universe_index: HashMap<Fault, usize> =
        faults.iter().enumerate().map(|(i, &f)| (f, i)).collect();
    let mut memo: HashMap<Fault, Option<usize>> = HashMap::new();
    fn resolve(
        rep: Fault,
        netlist: &Netlist,
        eq: &Collapse,
        universe_index: &HashMap<Fault, usize>,
        target_index: &HashMap<Fault, usize>,
        memo: &mut HashMap<Fault, Option<usize>>,
    ) -> Option<usize> {
        if let Some(&t) = target_index.get(&rep) {
            return Some(t);
        }
        if let Some(&t) = memo.get(&rep) {
            return t;
        }
        memo.insert(rep, None); // cycle guard; overwritten on success
        let gate = netlist.gate(rep.site.gate);
        let c = gate
            .kind()
            .controlling_value()
            .expect("only controlled-gate output faults are dropped");
        let mut found = None;
        for pin in 0..gate.fanin() {
            let witness = Fault {
                site: PortRef::input(rep.site.gate, pin as u8),
                stuck: !c,
            };
            let Some(&wi) = universe_index.get(&witness) else {
                continue;
            };
            let wrep = eq.representative(wi);
            if let Some(t) = resolve(wrep, netlist, eq, universe_index, target_index, memo) {
                found = Some(t);
                break;
            }
        }
        memo.insert(rep, found);
        found
    }

    let target_of: Vec<Option<usize>> = (0..faults.len())
        .map(|i| {
            resolve(
                eq.representative(i),
                netlist,
                &eq,
                &universe_index,
                &target_index,
                &mut memo,
            )
        })
        .collect();

    DominanceCollapse {
        eq,
        targets,
        target_of,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe;
    use dft_netlist::circuits::c17;
    use dft_netlist::{GateKind, Netlist};

    #[test]
    fn and_gate_classes() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g = n.add_gate(GateKind::And, &[a, b]).unwrap();
        n.mark_output(g, "y").unwrap();
        let faults = universe(&n);
        let col = collapse(&n, &faults);
        // Universe: a.out×2, b.out×2, g.in0×2, g.in1×2, g.out×2 = 10.
        // Equivalences: {g.in0/0, g.in1/0, g.out/0} merge;
        // a.out/v ≡ g.in0/v (fanout-free stem), b.out/v ≡ g.in1/v.
        // Classes: {a0,in0-0,b0,in1-0,out0}? Careful: a.out/0 ≡ g.in0/0 ≡ g.out/0
        // and b.out/0 ≡ g.in1/0 ≡ g.out/0 — all s-a-0 merge into one class.
        // s-a-1: {a1,in0-1}, {b1,in1-1}, {out1} → 3 classes.
        assert_eq!(col.class_count(), 4);
        assert!((col.ratio() - 0.4).abs() < 1e-9);
    }

    #[test]
    fn inverter_chain_collapses_to_two_classes() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let g1 = n.add_gate(GateKind::Not, &[a]).unwrap();
        let g2 = n.add_gate(GateKind::Not, &[g1]).unwrap();
        n.mark_output(g2, "y").unwrap();
        let faults = universe(&n);
        let col = collapse(&n, &faults);
        // Everything chains through: a/v ≡ g1.in/v ≡ g1.out/!v ≡ g2.in/!v ≡ g2.out/v
        assert_eq!(col.class_count(), 2);
    }

    #[test]
    fn xor_gates_do_not_collapse_inputs() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g = n.add_gate(GateKind::Xor, &[a, b]).unwrap();
        n.mark_output(g, "y").unwrap();
        let faults = universe(&n);
        let col = collapse(&n, &faults);
        // Only stem equivalences apply: a↔in0, b↔in1 → classes:
        // in0/0, in0/1, in1/0, in1/1, out/0, out/1 = 6.
        assert_eq!(col.class_count(), 6);
    }

    #[test]
    fn c17_collapse_is_roughly_half() {
        let n = c17();
        let faults = universe(&n);
        let col = collapse(&n, &faults);
        assert!(col.class_count() < faults.len());
        // Known value for c17 under these rules.
        assert!(
            col.ratio() > 0.3 && col.ratio() < 0.7,
            "ratio {} out of expected band",
            col.ratio()
        );
    }

    #[test]
    fn representative_is_stable_and_in_class() {
        let n = c17();
        let faults = universe(&n);
        let col = collapse(&n, &faults);
        for i in 0..faults.len() {
            let rep = col.representative(i);
            assert!(faults.contains(&rep));
        }
        let reps = col.representatives();
        assert_eq!(reps.len(), col.class_count());
    }

    #[test]
    fn expand_detection_round_trips() {
        let n = c17();
        let faults = universe(&n);
        let col = collapse(&n, &faults);
        let detected = vec![true; col.class_count()];
        let full = col.expand_detection(&detected);
        assert_eq!(full.len(), faults.len());
        assert!(full.iter().all(|&d| d));
    }

    #[test]
    fn dominance_reduces_further() {
        let n = c17();
        let faults = universe(&n);
        let eq = collapse(&n, &faults).class_count();
        let dom = dominance_collapse(&n, &faults).target_count();
        assert!(dom < eq, "dominance must drop some targets ({dom} vs {eq})");
    }

    #[test]
    fn dominance_maps_every_fault_on_c17() {
        // c17 has no redundancy: every fault resolves to some target, and
        // a dropped dominator's target is a genuine universe fault.
        let n = c17();
        let faults = universe(&n);
        let dom = dominance_collapse(&n, &faults);
        for i in 0..faults.len() {
            let t = dom.target_of(i).expect("every c17 fault has a target");
            assert!(dom.targets().contains(&t));
        }
        let all = dom.expand_detection(&vec![true; dom.target_count()]);
        assert!(
            all.iter().all(|&d| d),
            "all targets detected ⇒ all credited"
        );
    }

    #[test]
    fn dominance_expansion_never_overestimates() {
        // expand_detection contract, both directions. The cheap witness
        // expansion must never credit an undetected fault (soundness),
        // and expand_detection_exact must agree with full-universe
        // simulation bit for bit — including on truncated pattern sets
        // where a dominator is detected by patterns that miss every
        // witness, and on a redundant circuit where witnesses can be
        // missing entirely (`None` mapping).
        use dft_netlist::circuits::redundant_fixture;
        let mut cases: Vec<(Netlist, dft_sim::PatternSet)> = Vec::new();
        let rows: Vec<Vec<bool>> = (0..32u8)
            .map(|v| (0..5).map(|i| v >> i & 1 == 1).collect())
            .collect();
        // Exhaustive c17 plus short prefixes: small sets are where the
        // witness expansion underestimates.
        for take in [32usize, 11, 5, 2, 1] {
            cases.push((c17(), dft_sim::PatternSet::from_rows(5, &rows[..take])));
        }
        let fixture = redundant_fixture();
        let width = fixture.primary_inputs().len();
        let fix_rows: Vec<Vec<bool>> = (0..1u32 << width)
            .step_by(3)
            .map(|v| (0..width).map(|i| v >> i & 1 == 1).collect())
            .collect();
        cases.push((fixture, dft_sim::PatternSet::from_rows(width, &fix_rows)));
        let mut underestimates = 0usize;
        for (n, patterns) in &cases {
            let faults = universe(n);
            let dom = dominance_collapse(n, &faults);
            let on_targets = crate::simulate(n, patterns, dom.targets()).unwrap();
            let detected: Vec<bool> = on_targets
                .first_detected
                .iter()
                .map(Option::is_some)
                .collect();
            let truth = crate::simulate(n, patterns, &faults).unwrap();
            let expanded = dom.expand_detection(&detected);
            let exact = dom.expand_detection_exact(n, patterns, &detected).unwrap();
            for (i, &credited) in expanded.iter().enumerate() {
                let really = truth.first_detected[i].is_some();
                assert!(
                    !credited || really,
                    "fault {i} credited but not actually detected on {}",
                    n.name()
                );
                assert_eq!(
                    exact[i],
                    really,
                    "exact expansion wrong for fault {i} on {}",
                    n.name()
                );
                if really && !credited {
                    underestimates += 1;
                }
            }
        }
        assert!(
            underestimates > 0,
            "cases must exercise the witness-expansion gap the exact path closes"
        );
    }

    #[test]
    fn and_output_sa1_is_dropped_but_credited_through_its_inputs() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let g = n.add_gate(GateKind::And, &[a, b]).unwrap();
        let inv = n.add_gate(GateKind::Not, &[g]).unwrap();
        n.mark_output(inv, "y").unwrap();
        let faults = universe(&n);
        let dom = dominance_collapse(&n, &faults);
        let out_sa1 = faults
            .iter()
            .position(|f| f.site == PortRef::output(g) && f.stuck)
            .unwrap();
        let target = dom.target_of(out_sa1).expect("witness exists");
        assert_ne!(
            target.site,
            PortRef::output(g),
            "the dominator itself must not be a target"
        );
        assert!(target.stuck, "witness is an input s-a-1 class member");
    }

    #[test]
    fn expand_detection_empty_universe() {
        let n = c17();
        let col = collapse(&n, &[]);
        assert_eq!(col.class_count(), 0);
        assert!(col.expand_detection(&[]).is_empty());
        let dom = dominance_collapse(&n, &[]);
        assert_eq!(dom.target_count(), 0);
        assert!(dom.expand_detection(&[]).is_empty());
        assert!((dom.ratio() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn expand_detection_none_detected() {
        let n = c17();
        let faults = universe(&n);
        let col = collapse(&n, &faults);
        let full = col.expand_detection(&vec![false; col.class_count()]);
        assert_eq!(full.len(), faults.len());
        assert!(full.iter().all(|&d| !d));
    }

    #[test]
    fn expand_detection_over_a_sub_universe() {
        // Collapsing a sub-universe: merges with absent faults are
        // ignored, and expansion stays aligned with the sublist.
        let n = c17();
        let all = universe(&n);
        let sub: Vec<Fault> = all.iter().step_by(3).copied().collect();
        let col = collapse(&n, &sub);
        let mut detected = vec![false; col.class_count()];
        detected[0] = true;
        let full = col.expand_detection(&detected);
        assert_eq!(full.len(), sub.len());
        for i in 0..sub.len() {
            let rep = col.representative(i);
            let rep_idx = sub.iter().position(|&f| f == rep).unwrap();
            assert_eq!(full[i], full[rep_idx], "flag must follow the class rep");
        }
    }

    #[test]
    #[should_panic(expected = "assertion")]
    fn expand_detection_rejects_misaligned_flags() {
        let n = c17();
        let faults = universe(&n);
        let col = collapse(&n, &faults);
        let _ = col.expand_detection(&vec![true; col.class_count() + 1]);
    }

    #[test]
    fn po_stems_are_not_collapsed_into_readers() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let g1 = n.add_gate(GateKind::Buf, &[a]).unwrap();
        let g2 = n.add_gate(GateKind::Not, &[g1]).unwrap();
        n.mark_output(g1, "tap").unwrap(); // g1 is both a stem and a PO
        n.mark_output(g2, "y").unwrap();
        let faults = universe(&n);
        let col = collapse(&n, &faults);
        // g1.out faults must stay distinct from g2.in faults.
        let i_out = faults
            .iter()
            .position(|f| f.site == PortRef::output(g1) && !f.stuck)
            .unwrap();
        let i_in = faults
            .iter()
            .position(|f| f.site == PortRef::input(g2, 0) && !f.stuck)
            .unwrap();
        assert_ne!(col.representative(i_out), col.representative(i_in));
    }
}
