//! Rebased ≡ from-scratch: the implication engine's rebase contract.
//!
//! Each case builds a random circuit and a random chain of edits — a
//! fold of an implied constant with its exclusive fan-in region, a fold
//! of a random logic gate, an added gate, a rewire and a marked output.
//! After every edit a from-scratch engine of the previous netlist is
//! rebased onto the edited one and compared with an engine built from
//! scratch: every learned-edge list in store order,
//! every unsettable literal and implied constant, the learning counters
//! and the untestable count over the edited fault universe. The work
//! counters must add up: a propagation the rebase copied is one the
//! from-scratch build ran.

use dft_fault::stream::gate_faults;
use dft_fault::universe;
use dft_implic::{ImplicationEngine, LearnStats, RebasedCount};
use dft_netlist::circuits::{random_combinational, random_sequential};
use dft_netlist::cones::exclusive_fanin_region;
use dft_netlist::{ArenaDiff, GateId, GateKind, Netlist, Pin};
use proptest::prelude::*;

/// Small deterministic generator so each case derives its whole edit
/// chain from one seed (splitmix64).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

const LOGIC_KINDS: [GateKind; 6] = [
    GateKind::And,
    GateKind::Nand,
    GateKind::Or,
    GateKind::Nor,
    GateKind::Xor,
    GateKind::Xnor,
];

fn logic_gates(n: &Netlist) -> Vec<GateId> {
    n.ids()
        .filter(|&id| {
            let k = n.gate(id).kind();
            !k.is_source() && !k.is_storage()
        })
        .collect()
}

/// Folds `net` to `value` and its exclusive fan-in region to 0, as the
/// repair autopilot's fold edit does.
fn fold(n: &Netlist, net: GateId, value: bool) -> Netlist {
    let mut out = n.clone();
    out.replace_with_const(net, value).unwrap();
    for g in exclusive_fanin_region(n, net, n.topology()) {
        out.replace_with_const(g, false).unwrap();
    }
    out
}

/// One random edit of `n`; `None` when the drawn edit does not apply.
fn random_edit(n: &Netlist, step: usize, rng: &mut Rng) -> Option<Netlist> {
    let logic = logic_gates(n);
    let pick = |rng: &mut Rng| (!logic.is_empty()).then(|| logic[rng.below(logic.len())]);
    let any = |rng: &mut Rng| GateId::from_index(rng.below(n.gate_count()));
    match rng.below(5) {
        0 => {
            let engine = ImplicationEngine::new(n);
            let constants: Vec<(GateId, bool)> = logic
                .iter()
                .filter_map(|&g| engine.implied_constant(g).map(|v| (g, v)))
                .collect();
            let &(net, value) = constants.get(rng.below(constants.len()))?;
            Some(fold(n, net, value))
        }
        1 => {
            let gate = pick(rng)?;
            let mut out = n.clone();
            out.replace_with_const(gate, rng.next() & 1 == 1).unwrap();
            Some(out)
        }
        2 => {
            let mut out = n.clone();
            let kind = LOGIC_KINDS[rng.below(LOGIC_KINDS.len())];
            let g = out.add_gate(kind, &[any(rng), any(rng)]).unwrap();
            if rng.next() & 1 == 1 {
                out.mark_output(g, format!("added{step}")).unwrap();
            }
            Some(out)
        }
        3 => {
            let gate = pick(rng)?;
            let fanin = n.gate(gate).fanin();
            let mut out = n.clone();
            out.reconnect_input(gate, rng.below(fanin), any(rng)).ok()?;
            out.levelize().is_ok().then_some(out)
        }
        _ => {
            let net = any(rng);
            if n.primary_outputs().iter().any(|&(g, _)| g == net) {
                return None;
            }
            let mut out = n.clone();
            out.mark_output(net, format!("observed{step}")).unwrap();
            Some(out)
        }
    }
}

fn sites(n: &Netlist) -> Vec<(GateId, Pin, bool)> {
    universe(n)
        .iter()
        .map(|f| (f.site.gate, f.site.pin, f.stuck))
        .collect()
}

/// The faults of `edited`'s universe at the gates the edit of `before`
/// rewrote or appended.
fn added(before: &Netlist, edited: &Netlist) -> Vec<(GateId, Pin, bool)> {
    let diff = before.arena_diff(edited).expect("an append-only edit");
    diff.rewritten
        .iter()
        .chain(&diff.appended)
        .flat_map(|&g| gate_faults(edited, g))
        .map(|f| (f.site.gate, f.site.pin, f.stuck))
        .collect()
}

/// `edited`'s untestable count on the engine rebased from `base`'s
/// recorder, from `record`.
fn count(
    rebased: &ImplicationEngine<'_>,
    record: &dft_implic::VerdictRecord,
    before: &Netlist,
) -> Option<RebasedCount> {
    rebased.untestable_count_rebased(record, &added(before, rebased.netlist()))
}

/// Everything learning produces that the rebase must reproduce.
type Learned = (
    Vec<Vec<String>>,
    Vec<(bool, bool, Option<bool>)>,
    [usize; 4],
);

fn learned(e: &ImplicationEngine<'_>) -> Learned {
    let n = e.netlist();
    let edges = n
        .ids()
        .flat_map(|id| [false, true].map(|v| (id, v)))
        .map(|(id, v)| {
            e.learned_edges(id, v)
                .iter()
                .map(|l| l.to_string())
                .collect()
        })
        .collect();
    let facts = n
        .ids()
        .map(|id| {
            (
                e.is_unsettable(id, false),
                e.is_unsettable(id, true),
                e.implied_constant(id),
            )
        })
        .collect();
    let s = e.stats();
    (
        edges,
        facts,
        [
            s.rounds,
            s.learned_edges,
            s.unsettable_literals,
            s.implied_constants,
        ],
    )
}

/// The edit chain of one case: the netlist before and after each edit.
fn chain(mut n: Netlist, edits: usize, seed: u64) -> Vec<Netlist> {
    let mut rng = Rng(seed);
    let mut out = vec![n.clone()];
    for step in 0..edits {
        // Redraw a few times when the drawn edit does not apply.
        if let Some(edited) = (0..8).find_map(|_| random_edit(&n, step, &mut rng)) {
            n = edited;
            out.push(n.clone());
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn rebased_engine_equals_a_fresh_build(
        seed in any::<u64>(),
        inputs in 2usize..=10,
        gates in 4usize..=120,
        edits in 1usize..=6,
        sequential in any::<bool>(),
    ) {
        let n = if sequential {
            random_sequential(inputs.min(4), 3, gates / 8 + 1, 2, seed)
        } else {
            random_combinational(inputs, gates, seed)
        };
        let nets = chain(n, edits, seed);
        let mut prev = ImplicationEngine::new(&nets[0]);
        for k in 1..nets.len() {
            let record = prev.faults_untestable_recorded(&sites(&nets[k - 1]));
            let diff = nets[k - 1].arena_diff(&nets[k]).expect("an append-only edit");
            let rebased = prev.rebase(&nets[k], &diff);
            let fresh = ImplicationEngine::new(&nets[k]);
            prop_assert_eq!(learned(&rebased), learned(&fresh), "edit {}", k);
            let (r, f): (LearnStats, LearnStats) = (rebased.stats(), fresh.stats());
            prop_assert_eq!(r.propagations + r.rows_rebased, f.propagations, "edit {}", k);
            prop_assert_eq!(r.rows_reused, f.rows_reused, "edit {}", k);
            prop_assert_eq!(f.rows_rebased, 0);

            let faults = sites(&nets[k]);
            let want = fresh.faults_untestable(&faults).iter().flatten().count();
            let got = count(&rebased, &record, &nets[k - 1]).expect("the record is the prior's");
            prop_assert_eq!(got.untestable, want, "edit {}", k);
            prop_assert_eq!(got.faults, faults.len(), "edit {}", k);
            prop_assert!(got.decided <= faults.len());
            // A rebased engine keeps no learning record, so rebasing it
            // again is a from-scratch build. The next edit rebases a
            // fresh build of this netlist, as each ranking round does.
            let again = rebased.rebase(&nets[k], &Default::default());
            prop_assert_eq!(learned(&again), learned(&fresh), "edit {}", k);
            prop_assert_eq!(again.stats(), f, "edit {}", k);
            prev = fresh;
        }
    }
}

#[test]
fn folding_an_implied_constant_copies_most_of_the_work() {
    let n = random_combinational(15, 140, 6);
    let base = ImplicationEngine::new(&n);
    let faults = sites(&n);
    let record = base.faults_untestable_recorded(&faults);
    assert_eq!(record.verdicts(), &base.faults_untestable(&faults)[..]);
    let (net, value) = logic_gates(&n)
        .into_iter()
        .find_map(|g| base.implied_constant(g).map(|v| (g, v)))
        .expect("rand_15x140 has implied constants");
    let edited = fold(&n, net, value);
    let rebased = base.rebase(&edited, &n.arena_diff(&edited).unwrap());
    let s = rebased.stats();
    assert!(s.rows_rebased > s.propagations, "{s:?}");
    let faults = sites(&edited);
    let got = count(&rebased, &record, &n).unwrap();
    let fresh = ImplicationEngine::new(&edited).faults_untestable(&faults);
    assert_eq!(got.untestable, fresh.iter().flatten().count());
    assert_eq!(got.faults, faults.len());
    assert!(10 * got.decided < faults.len(), "{got:?}");
}

#[test]
fn a_record_from_another_engine_is_not_reused() {
    let n = random_combinational(15, 140, 6);
    let base = ImplicationEngine::new(&n);
    let other = ImplicationEngine::new(&n);
    let faults = sites(&n);
    let record = other.faults_untestable_recorded(&faults);
    let rebased = base.rebase(&n, &Default::default());
    assert_eq!(count(&rebased, &record, &n), None);
    let own = base.faults_untestable_recorded(&faults);
    let got = count(&rebased, &own, &n).unwrap();
    assert_eq!(got.untestable, own.verdicts().iter().flatten().count());
    assert_eq!((got.faults, got.decided), (faults.len(), 0));
}

#[test]
fn a_shrunken_arena_builds_from_scratch() {
    let n = random_combinational(8, 60, 2);
    let base = ImplicationEngine::new(&n);
    let small = random_combinational(8, 30, 2);
    let rebased = base.rebase(&small, &ArenaDiff::default());
    let fresh = ImplicationEngine::new(&small);
    assert_eq!(learned(&rebased), learned(&fresh));
    assert_eq!(rebased.stats(), fresh.stats());
}
