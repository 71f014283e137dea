//! Static pre-ranking of candidate edits — no simulation involved.
//!
//! Fault simulation is the expensive step of the autopilot, so
//! candidates are ordered by *static* evidence first and only the top
//! few reach the PPSFP verifier. Two static signals mirror the paper's
//! §II argument that testability is measurable without test generation:
//!
//! * **SCOAP difficulty delta** — `total_difficulty(before) −
//!   total_difficulty(after)`: how much easier the whole netlist becomes
//!   to control and observe.
//! * **Statically-untestable-fault delta** — how many provably
//!   untestable faults the edit removes (folded redundancy leaves the
//!   fault universe; new access makes old faults provable-testable).
//!
//! Both are integers, the score is integer arithmetic, and ties break on
//! the candidate key — the ranking is bit-for-bit deterministic.
//!
//! Where the time goes: each round builds one base — a warmed SCOAP
//! cache and an implication engine with a recorded verdict batch over
//! the round's netlist — and every candidate rebases the cache and the
//! engine. A warmed cache clone re-solves SCOAP only in the edit's dirty
//! cone;
//! [`ImplicationEngine::rebase`] copies every learning propagation the
//! edit cannot reach, and
//! [`ImplicationEngine::faults_untestable_rebased`] copies every verdict
//! whose excitation and observation walks read nothing the edit
//! changed. What remains per candidate is the work around the edit plus
//! each build's setup and contrapose passes.

use dft_analyze::AnalysisCache;
use dft_fault::{prefilter_with, universe, Fault};
use dft_implic::{ImplicationEngine, LearnStats, VerdictRecord};
use dft_netlist::{GateId, GateKind, Netlist, Pin};

use crate::candidate::{apply_edit, Candidate, Edited};

/// Weight of one removed-untestable-fault against one point of SCOAP
/// difficulty. Untestable faults are coverage poison (they cap the
/// achievable fraction), so one of them outweighs any plausible
/// difficulty swing on the circuits this toolkit targets.
const UNTESTABLE_WEIGHT: i128 = 10_000;

/// Static baseline measures of a netlist, computed once per round and
/// shared by every candidate scored against it.
#[derive(Clone, Copy, Debug)]
pub struct StaticBaseline {
    /// SCOAP total difficulty.
    pub difficulty: u64,
    /// Faults in the universe proven untestable by static implication.
    pub untestable: usize,
    /// Total faults in the universe.
    pub fault_count: usize,
    /// What the measurement's implication engine did while learning —
    /// work counters for the trace, not part of the score.
    pub learn: LearnStats,
    /// Verdicts the measurement copied from the round's base batch
    /// instead of deciding afresh (0 for a from-scratch measurement).
    pub verdicts_reused: usize,
}

impl StaticBaseline {
    /// Measures `netlist`. Returns `None` on combinational cycles (the
    /// autopilot refuses those upstream).
    ///
    /// Difficulty is summed over non-constant gates only, matching the
    /// fault universe: a folded-away `Const` gate carries no faults, so
    /// its (infinite, dangling) observability must not poison the score.
    #[must_use]
    pub fn measure(netlist: &Netlist) -> Option<Self> {
        let mut cache = AnalysisCache::new(netlist).ok()?;
        let faults = universe(netlist);
        let engine = ImplicationEngine::new(netlist);
        Some(StaticBaseline {
            difficulty: difficulty(&mut cache),
            untestable: prefilter_with(&engine, &faults).untestable_count(),
            fault_count: faults.len(),
            learn: engine.stats(),
            verdicts_reused: 0,
        })
    }
}

/// SCOAP total difficulty over the non-constant gates of the cache's
/// netlist.
fn difficulty(cache: &mut AnalysisCache) -> u64 {
    let const_mask: Vec<bool> = cache
        .netlist()
        .iter()
        .map(|(_, g)| matches!(g.kind(), GateKind::Const0 | GateKind::Const1))
        .collect();
    let scoap = cache.scoap();
    (0..const_mask.len())
        .filter(|&i| !const_mask[i])
        .map(|i| u64::from(scoap.difficulty(GateId::from_index(i))))
        .sum()
}

fn sites(faults: &[Fault]) -> Vec<(GateId, Pin, bool)> {
    faults
        .iter()
        .map(|f| (f.site.gate, f.site.pin, f.stuck))
        .collect()
}

/// One round's base: a warmed cache and an implication engine with a
/// recorded verdict batch over the round's netlist. Every candidate is
/// measured by rebasing the cache and the engine, and by copying from
/// the batch.
struct Base<'n> {
    cache: AnalysisCache,
    engine: ImplicationEngine<'n>,
    verdicts: VerdictRecord,
}

impl<'n> Base<'n> {
    fn new(netlist: &'n Netlist) -> Option<Self> {
        let mut cache = AnalysisCache::new(netlist).ok()?;
        cache.scoap();
        cache.constants();
        let engine = ImplicationEngine::new(netlist);
        let verdicts = engine.faults_untestable_recorded(&sites(&universe(netlist)));
        Some(Base {
            cache,
            engine,
            verdicts,
        })
    }

    /// The round's netlist's own measures.
    fn baseline(&mut self) -> StaticBaseline {
        StaticBaseline {
            difficulty: difficulty(&mut self.cache),
            untestable: self.verdicts.verdicts().iter().flatten().count(),
            fault_count: self.verdicts.verdicts().len(),
            learn: self.engine.stats(),
            verdicts_reused: 0,
        }
    }

    /// Measures `edited` — an edit of the base netlist — by rebasing;
    /// `None` if it is cyclic.
    fn measure(&self, edited: &Netlist) -> Option<StaticBaseline> {
        let mut cache = self.cache.clone();
        cache.rebase(edited).ok()?;
        let faults = sites(&universe(edited));
        let engine = self.engine.rebase(edited);
        let (verdicts, verdicts_reused) = engine.faults_untestable_rebased(&self.verdicts, &faults);
        Some(StaticBaseline {
            difficulty: difficulty(&mut cache),
            untestable: verdicts.iter().flatten().count(),
            fault_count: faults.len(),
            learn: engine.stats(),
            verdicts_reused,
        })
    }
}

/// A candidate with its applied netlist and static score.
#[derive(Clone, Debug)]
pub struct RankedCandidate {
    /// The candidate and its provenance.
    pub candidate: Candidate,
    /// The edit, already applied (reused by the verifier — edits are
    /// applied exactly once per round).
    pub edited: Edited,
    /// SCOAP difficulty drop (positive = easier to test).
    pub difficulty_delta: i128,
    /// Statically-untestable faults removed (positive = fewer).
    pub untestable_delta: i128,
    /// The integer rank score; higher is better.
    pub score: i128,
}

/// One round's static ranking.
#[derive(Clone, Debug)]
pub struct Ranking {
    /// The best `top_k` candidates, best first.
    pub kept: Vec<RankedCandidate>,
    /// Candidates dropped: not applicable, not measurable, or ranked
    /// below `top_k`.
    pub pruned: usize,
    /// Implication propagations the round's learning passes ran, summed
    /// over the round's base engine and every candidate's rebase.
    pub propagations: usize,
    /// Literal propagations those passes skipped by reusing rows.
    pub rows_reused: usize,
    /// Literal propagations the candidates' rebases copied from the
    /// round's base engine.
    pub rows_rebased: usize,
    /// Untestability verdicts the candidates copied from the base
    /// engine's recorded batch.
    pub verdicts_reused: usize,
}

impl Ranking {
    fn tally(&mut self, measured: &StaticBaseline) {
        self.propagations += measured.learn.propagations;
        self.rows_reused += measured.learn.rows_reused;
        self.rows_rebased += measured.learn.rows_rebased;
        self.verdicts_reused += measured.verdicts_reused;
    }
}

/// Applies and scores every candidate against `netlist`'s own static
/// measures, sorts best first (score, then key for determinism), and
/// keeps the first `top_k`.
///
/// The round's base — a warmed SCOAP cache and an implication engine
/// with a recorded verdict batch, built once on `netlist` — gives the
/// baseline, and each candidate is measured by rebasing it onto the
/// edited netlist. Candidates that fail to apply (a fold of a non-logic
/// net, or a cyclic result) or to measure are dropped and counted as
/// pruned — as is everything when `netlist` itself cannot be measured.
#[must_use]
pub fn rank_candidates(netlist: &Netlist, candidates: Vec<Candidate>, top_k: usize) -> Ranking {
    let mut ranking = Ranking {
        kept: Vec::with_capacity(candidates.len()),
        pruned: 0,
        propagations: 0,
        rows_reused: 0,
        rows_rebased: 0,
        verdicts_reused: 0,
    };
    let Some(mut base) = Base::new(netlist) else {
        ranking.pruned = candidates.len();
        return ranking;
    };
    let baseline = base.baseline();
    ranking.tally(&baseline);
    for candidate in candidates {
        let Ok(edited) = apply_edit(netlist, candidate.edit) else {
            ranking.pruned += 1;
            continue;
        };
        let Some(after) = base.measure(&edited.netlist) else {
            ranking.pruned += 1;
            continue;
        };
        ranking.tally(&after);
        let difficulty_delta = i128::from(baseline.difficulty) - i128::from(after.difficulty);
        let untestable_delta = baseline.untestable as i128 - after.untestable as i128;
        // Benefit per unit of hardware: pins are the scarce resource
        // (§III-B's whole premise), so they weigh double.
        let hardware = edited.extra_gates.max(0) as i128 + 2 * edited.extra_pins.max(0) as i128;
        let score =
            (difficulty_delta + UNTESTABLE_WEIGHT * untestable_delta) * 1000 / (hardware + 1);
        ranking.kept.push(RankedCandidate {
            candidate,
            edited,
            difficulty_delta,
            untestable_delta,
            score,
        });
    }
    ranking.kept.sort_by(|a, b| {
        b.score
            .cmp(&a.score)
            .then_with(|| a.candidate.edit.key().cmp(&b.candidate.edit.key()))
    });
    ranking.pruned += ranking.kept.len().saturating_sub(top_k);
    ranking.kept.truncate(top_k);
    ranking
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidate::expand_hints;
    use dft_lint::lint;
    use dft_netlist::circuits::{random_combinational, redundant_fixture};

    #[test]
    fn baseline_measures_the_fixture() {
        let n = redundant_fixture();
        let b = StaticBaseline::measure(&n).unwrap();
        assert!(b.untestable > 0, "the fixture has provable redundancy");
        assert!(b.fault_count > b.untestable);
    }

    #[test]
    fn fold_outranks_cosmetic_candidates_on_the_fixture() {
        let n = redundant_fixture();
        let report = lint(&n);
        let cands = expand_hints(report.diagnostics(), &[]);
        let total = cands.len();
        let ranking = rank_candidates(&n, cands, 2);
        let ranked = ranking.kept;
        assert_eq!(
            ranked.len() + ranking.pruned,
            total,
            "pruning is accounted for"
        );
        // Removing provable redundancy dominates the static score.
        assert_eq!(ranked[0].candidate.edit.kind(), "fold");
        assert!(ranked[0].untestable_delta > 0);
        assert!(ranked[0].score > 0);
    }

    #[test]
    fn rebased_scoring_matches_from_scratch_measurement() {
        // Rebasing must not move a single number: score every candidate
        // both ways — rebasing the round's warmed cache and implication
        // engine, and measuring the edited netlist from scratch with a
        // fresh engine and prefilter — and demand identical deltas and
        // scores, candidate by candidate. rand_15x140's first round has
        // 43 candidates: 39 folds and 4 observe points.
        for (n, kinds) in [
            (redundant_fixture(), None),
            (random_combinational(15, 140, 6), Some((39, 4))),
        ] {
            let report = lint(&n);
            let baseline = StaticBaseline::measure(&n).unwrap();
            let cands = expand_hints(report.diagnostics(), &[]);
            if let Some((folds, observes)) = kinds {
                let count = |kind| cands.iter().filter(|c| c.edit.kind() == kind).count();
                assert_eq!(
                    (cands.len(), count("fold"), count("observe")),
                    (folds + observes, folds, observes)
                );
            }
            let ranked = rank_candidates(&n, cands.clone(), usize::MAX).kept;
            let mut reference: Vec<(String, i128, i128, i128)> = Vec::new();
            for candidate in cands {
                let Ok(edited) = apply_edit(&n, candidate.edit) else {
                    continue;
                };
                let report = dft_testability::analyze(&edited.netlist).unwrap();
                let difficulty: u64 = edited
                    .netlist
                    .ids()
                    .filter(|&id| {
                        !matches!(
                            edited.netlist.gate(id).kind(),
                            GateKind::Const0 | GateKind::Const1
                        )
                    })
                    .map(|id| u64::from(report.measure(id).difficulty()))
                    .sum();
                let faults = universe(&edited.netlist);
                let engine = ImplicationEngine::new(&edited.netlist);
                let untestable = prefilter_with(&engine, &faults).untestable_count();
                let dd = i128::from(baseline.difficulty) - i128::from(difficulty);
                let ud = baseline.untestable as i128 - untestable as i128;
                let hardware =
                    edited.extra_gates.max(0) as i128 + 2 * edited.extra_pins.max(0) as i128;
                let score = (dd + UNTESTABLE_WEIGHT * ud) * 1000 / (hardware + 1);
                reference.push((candidate.edit.key(), dd, ud, score));
            }
            reference.sort_by(|a, b| b.3.cmp(&a.3).then_with(|| a.0.cmp(&b.0)));
            let got: Vec<(String, i128, i128, i128)> = ranked
                .iter()
                .map(|r| {
                    (
                        r.candidate.edit.key(),
                        r.difficulty_delta,
                        r.untestable_delta,
                        r.score,
                    )
                })
                .collect();
            assert_eq!(got, reference, "{}: rebased ranking diverged", n.name());
        }
    }

    #[test]
    fn unappliable_folds_are_pruned() {
        let n = redundant_fixture();
        let input = n.primary_inputs()[0];
        let bad = |edit| Candidate {
            edit,
            rule: "test",
            code: "DFT-000",
        };
        let cands = vec![
            bad(crate::CandidateEdit::Fold {
                net: input,
                value: false,
            }),
            bad(crate::CandidateEdit::Fold {
                net: GateId::from_index(n.gate_count()),
                value: true,
            }),
        ];
        let ranking = rank_candidates(&n, cands, usize::MAX);
        assert!(ranking.kept.is_empty());
        assert_eq!(ranking.pruned, 2);
    }

    #[test]
    fn ranking_is_deterministic() {
        let n = redundant_fixture();
        let report = lint(&n);
        let run = || {
            let cands = expand_hints(report.diagnostics(), &[]);
            rank_candidates(&n, cands, 8)
                .kept
                .iter()
                .map(|r| (r.candidate.edit.key(), r.score))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
