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
//! Where the time goes: a candidate costs what its edit changes, not
//! what the round's netlist holds. Each round builds one base on the
//! round's netlist — a warmed SCOAP cache, the implication engine the
//! round's lint run built ([`rank_candidates_in`]) and a verdict batch
//! that engine recorded — and [`apply_edit`] reports the arena diff of
//! each candidate's edit. Per candidate:
//!
//! * the cache clone re-solves SCOAP only in the edit's dirty cone, and
//!   the difficulty total is summed afresh over the edited netlist;
//! * [`ImplicationEngine::rebase`] propagates only the learning slots
//!   whose recorded trace meets a read the edit changed (found through
//!   an index from each literal to the traces holding it) and takes
//!   every other slot's outcome from the base engine;
//! * [`ImplicationEngine::untestable_count_rebased`] counts the edited
//!   universe's untestable faults as the base count minus the removed
//!   and flipped verdicts plus the added ones, visiting only the
//!   verdicts whose recorded excitation or walk read something the edit
//!   changed; an observable verdict whose witness path still holds is
//!   kept without a walk.
//!
//! The fault count is the base count minus the rewritten gates' faults
//! plus the faults of the rewritten and appended gates. Only the best
//! `top_k` candidates scored so far stay alive while scoring.

use dft_analyze::AnalysisCache;
use dft_fault::stream::gate_faults;
use dft_fault::{prefilter_with, universe, Fault};
use dft_implic::{ImplicationEngine, VerdictRecord};
use dft_lint::{LintConfig, LintContext};
use dft_netlist::{GateId, GateKind, Netlist, Pin};
use dft_obs::{Collector, Obs};

use crate::candidate::{apply_edit, Candidate, Edited};

/// Weight of one removed-untestable-fault against one point of SCOAP
/// difficulty. Untestable faults are coverage poison (they cap the
/// achievable fraction), so one of them outweighs any plausible
/// difficulty swing on the circuits this toolkit targets.
const UNTESTABLE_WEIGHT: i128 = 10_000;

/// Static baseline measures of a netlist, computed once per round and
/// shared by every candidate scored against it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StaticBaseline {
    /// SCOAP total difficulty.
    pub difficulty: u64,
    /// Faults in the universe proven untestable by static implication.
    pub untestable: usize,
    /// Total faults in the universe.
    pub fault_count: usize,
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
        })
    }
}

/// SCOAP total difficulty over the non-constant gates of the cache's
/// netlist.
fn difficulty(cache: &mut AnalysisCache) -> u64 {
    cache.scoap();
    let (netlist, scoap) = (cache.netlist(), cache.scoap_ready().expect("just solved"));
    netlist
        .iter()
        .filter(|(_, g)| !matches!(g.kind(), GateKind::Const0 | GateKind::Const1))
        .map(|(id, _)| u64::from(scoap.difficulty(id)))
        .sum()
}

fn sites(faults: impl IntoIterator<Item = Fault>) -> Vec<(GateId, Pin, bool)> {
    faults
        .into_iter()
        .map(|f| (f.site.gate, f.site.pin, f.stuck))
        .collect()
}

/// The ranking's implication work, summed over the round's base engine
/// and every candidate's rebase of it, and flushed once onto the
/// caller's span ([`rank_candidates_in`]).
#[derive(Default)]
struct Work {
    propagations: usize,
    rows_reused: usize,
    rows_rebased: usize,
    verdicts_reused: usize,
}

impl Work {
    /// Adds what `engine` did while learning, and `verdicts_reused`.
    fn add(&mut self, engine: &ImplicationEngine<'_>, verdicts_reused: usize) {
        let learn = engine.stats();
        self.propagations += learn.propagations;
        self.rows_reused += learn.rows_reused;
        self.rows_rebased += learn.rows_rebased;
        self.verdicts_reused += verdicts_reused;
    }

    fn flush(&self, obs: &mut Obs<'_>) {
        obs.count("repair.rank.propagations", self.propagations as u64);
        obs.count("repair.rank.rows_reused", self.rows_reused as u64);
        obs.count("repair.rank.rows_rebased", self.rows_rebased as u64);
        obs.count("repair.rank.verdicts_reused", self.verdicts_reused as u64);
    }
}

/// One round's base: a warmed cache, the round's implication engine and
/// the verdict batch it recorded over the round's netlist. Every
/// candidate is measured by rebasing the cache and the engine onto its
/// edit, and by counting from the batch.
struct Base<'a> {
    cache: AnalysisCache,
    engine: &'a ImplicationEngine<'a>,
    verdicts: VerdictRecord,
    /// The base netlist's SCOAP total difficulty.
    difficulty: u64,
}

impl<'a> Base<'a> {
    fn new(engine: &'a ImplicationEngine<'a>) -> Option<Self> {
        let netlist = engine.netlist();
        let mut cache = AnalysisCache::new(netlist).ok()?;
        let difficulty = difficulty(&mut cache);
        let verdicts = engine.faults_untestable_recorded(&sites(universe(netlist)));
        Some(Base {
            cache,
            engine,
            verdicts,
            difficulty,
        })
    }

    /// The round's netlist's own measures.
    fn baseline(&self) -> StaticBaseline {
        StaticBaseline {
            difficulty: self.difficulty,
            untestable: self.verdicts.verdicts().iter().flatten().count(),
            fault_count: self.verdicts.verdicts().len(),
        }
    }

    /// Measures `edited` — an edit of the base netlist — by rebasing,
    /// adding the rebase's implication work to `work`; `None` if it is
    /// cyclic.
    fn measure(&self, edited: &Edited, work: &mut Work) -> Option<StaticBaseline> {
        let (netlist, diff) = (&edited.netlist, &edited.diff);
        let mut cache = self.cache.clone();
        cache.rebase(netlist, diff).ok()?;
        let engine = self.engine.rebase(netlist, diff);
        let changed = diff.rewritten.iter().chain(&diff.appended);
        let added = sites(changed.flat_map(|&g| gate_faults(netlist, g)));
        let (untestable, fault_count, verdicts_reused) =
            match engine.untestable_count_rebased(&self.verdicts, &added) {
                Some(count) => (count.untestable, count.faults, count.faults - count.decided),
                None => {
                    let faults = sites(universe(netlist));
                    let untestable = engine.faults_untestable(&faults).iter().flatten().count();
                    (untestable, faults.len(), 0)
                }
            };
        work.add(&engine, verdicts_reused);
        Some(StaticBaseline {
            difficulty: difficulty(&mut cache),
            untestable,
            fault_count,
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
}

/// Applies and scores every candidate against `netlist`'s own static
/// measures, sorts best first (score, then key for determinism), and
/// keeps the first `top_k`: [`rank_candidates_in`] over a fresh
/// [`LintContext`] of `netlist`.
#[must_use]
pub fn rank_candidates(netlist: &Netlist, candidates: Vec<Candidate>, top_k: usize) -> Ranking {
    rank_candidates_in(
        &LintContext::new(netlist, LintConfig::default()),
        candidates,
        top_k,
        None,
    )
}

/// [`rank_candidates`] over the netlist of `context`, with the context's
/// implication engine as the round's base engine — the one the round's
/// lint run built, when lint ran over `context`.
///
/// The round's base — a warmed SCOAP cache and the engine's recorded
/// verdict batch — gives the baseline, and each candidate is measured by
/// rebasing it onto the edited netlist. Candidates that fail to apply
/// (a fold of a non-logic net, or a cyclic result) or to measure are
/// dropped and counted as pruned, as is everything when the netlist
/// itself cannot be measured. Only the best `top_k` scored so far are
/// kept while scoring, so the edited netlists of the rest are dropped
/// as soon as they are scored.
///
/// Counts the ranking's implication work onto the caller's current span
/// of `obs`, each summed over the round's base engine and every
/// candidate's rebase of it:
///
/// * `repair.rank.propagations` — learning propagations run;
/// * `repair.rank.rows_reused` — propagations skipped because a
///   literal's row from the previous round repeats;
/// * `repair.rank.rows_rebased` — propagations taken from the base
///   engine because the candidate's edit cannot reach them;
/// * `repair.rank.verdicts_reused` — verdicts of the candidates' fault
///   universes for which no excitation and no observation walk ran: the
///   base engine's recorded verdict stood.
#[must_use]
pub fn rank_candidates_in(
    context: &LintContext<'_>,
    candidates: Vec<Candidate>,
    top_k: usize,
    obs: Option<&mut dyn Collector>,
) -> Ranking {
    let mut ranking = Ranking {
        kept: Vec::new(),
        pruned: 0,
    };
    let Some(base) = context.implications().and_then(Base::new) else {
        ranking.pruned = candidates.len();
        return ranking;
    };
    let netlist = context.netlist();
    let baseline = base.baseline();
    let mut work = Work::default();
    work.add(base.engine, 0);
    // The best `top_k` so far, best first (score descending, then key
    // ascending), each with its key.
    let mut best: Vec<(String, RankedCandidate)> = Vec::new();
    for candidate in candidates {
        let Ok(edited) = apply_edit(netlist, candidate.edit) else {
            ranking.pruned += 1;
            continue;
        };
        let Some(after) = base.measure(&edited, &mut work) else {
            ranking.pruned += 1;
            continue;
        };
        let difficulty_delta = i128::from(baseline.difficulty) - i128::from(after.difficulty);
        let untestable_delta = baseline.untestable as i128 - after.untestable as i128;
        // Benefit per unit of hardware: pins are the scarce resource
        // (§III-B's whole premise), so they weigh double.
        let hardware = edited.extra_gates.max(0) as i128 + 2 * edited.extra_pins.max(0) as i128;
        let score =
            (difficulty_delta + UNTESTABLE_WEIGHT * untestable_delta) * 1000 / (hardware + 1);
        let key = candidate.edit.key();
        // After every candidate that ranks no lower: ties keep input order.
        let at = best.partition_point(|(k, r)| {
            r.score > score || r.score == score && k.as_str() <= key.as_str()
        });
        if at >= top_k {
            ranking.pruned += 1;
            continue;
        }
        best.insert(
            at,
            (
                key,
                RankedCandidate {
                    candidate,
                    edited,
                    difficulty_delta,
                    untestable_delta,
                    score,
                },
            ),
        );
        if best.len() > top_k {
            best.pop();
            ranking.pruned += 1;
        }
    }
    ranking.kept = best.into_iter().map(|(_, r)| r).collect();
    work.flush(&mut Obs::new(obs));
    ranking
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidate::expand_hints;
    use crate::{repair, CandidateEdit, RepairOptions};
    use dft_lint::{lint, Registry};
    use dft_netlist::circuits::{
        random_combinational, random_sequential, redundant_fixture, LayeredCircuit, RandomCircuit,
    };
    use proptest::prelude::*;

    /// One candidate of every edit kind on the nets a `pick` draws.
    fn every_kind(netlist: &Netlist, pick: u64) -> Vec<Candidate> {
        let logic: Vec<GateId> = netlist
            .ids()
            .filter(|&g| {
                let k = netlist.gate(g).kind();
                !k.is_source() && !k.is_storage()
            })
            .collect();
        let mut edits = vec![CandidateEdit::AddReset, CandidateEdit::ScanConvert];
        if !logic.is_empty() {
            let net =
                |k: u64| logic[(pick.rotate_left(13 * k as u32) % logic.len() as u64) as usize];
            edits.extend([
                CandidateEdit::Observe { net: net(1) },
                CandidateEdit::ControlMux { net: net(2) },
                CandidateEdit::Degate { net: net(3) },
                CandidateEdit::Fold {
                    net: net(4),
                    value: pick & 1 == 1,
                },
            ]);
        }
        edits
            .into_iter()
            .map(|edit| Candidate {
                edit,
                rule: "test",
                code: "DFT-000",
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Rebased scoring equals from-scratch scoring in every round:
        /// replaying the autopilot's rounds on random, layered and
        /// sequential circuits, lint's candidates and one of every edit
        /// kind, measured against the round's base, match
        /// [`StaticBaseline::measure`] of the edited netlist, and the
        /// base matches it on the round's own netlist.
        #[test]
        fn rebased_measures_equal_from_scratch_in_every_round(
            family in 0usize..3,
            gates in 20usize..=300,
            seed in any::<u64>(),
        ) {
            let n = match family {
                0 => RandomCircuit::new(6 + gates / 50, gates).seed(seed).build(),
                1 => LayeredCircuit::new(6 + gates / 50, gates)
                    .width(8 + gates / 8)
                    .seed(seed)
                    .build(),
                _ => random_sequential(4, 3, gates / 12 + 1, 2, seed),
            };
            let options = RepairOptions::new().with_threads(1).with_max_rounds(2);
            let outcome = repair(&n, &options).unwrap();
            let mut current = n.clone();
            let mut applied: Vec<String> = Vec::new();
            for round in 1..=options.max_rounds {
                let context = LintContext::new(&current, options.lint_config.clone());
                let report = Registry::with_default_rules().run_in(&context, None);
                // Lint's candidates, thinned to at most 10 spread over the
                // list to bound the from-scratch builds, and every kind.
                let proposed = expand_hints(report.diagnostics(), &applied);
                let step = proposed.len().div_ceil(10).max(1);
                let mut candidates: Vec<Candidate> = proposed.into_iter().step_by(step).collect();
                candidates.extend(every_kind(&current, seed ^ round as u64));
                let base = Base::new(context.implications().unwrap()).unwrap();
                let own = StaticBaseline::measure(&current).unwrap();
                prop_assert_eq!(base.baseline(), own);
                for candidate in candidates {
                    let Ok(edited) = apply_edit(&current, candidate.edit) else {
                        continue;
                    };
                    let want = StaticBaseline::measure(&edited.netlist);
                    let got = base.measure(&edited, &mut Work::default());
                    prop_assert_eq!(got, want, "round {} {}", round, candidate.edit.key());
                }
                let Some(accepted) = outcome
                    .plan
                    .records
                    .iter()
                    .find(|r| r.round == round && r.accepted)
                else {
                    break;
                };
                current = apply_edit(&current, accepted.edit).unwrap().netlist;
                applied.push(accepted.edit.key());
            }
            prop_assert_eq!(current, outcome.netlist);
        }
    }

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
